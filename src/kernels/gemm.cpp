#include "kernels/gemm.hpp"

#include <algorithm>
#include <cmath>

#include "gpusim/launch_model.hpp"
#include "kernels/models/gemm_model.hpp"

namespace bat::kernels {

namespace {

enum Pos { kMwg, kNwg, kMdimc, kNdimc, kMdima, kNdimb, kVwm, kVwn, kSa, kSb };

}  // namespace

GemmBenchmark::GemmBenchmark() : KernelBenchmark("gemm", make_space()) {}

core::SearchSpace GemmBenchmark::make_space() {
  core::ParamSpace space;
  space.add(core::Parameter::list("MWG", {16, 32, 64, 128}))
      .add(core::Parameter::list("NWG", {16, 32, 64, 128}))
      .add(core::Parameter::list("MDIMC", {8, 16, 32}))
      .add(core::Parameter::list("NDIMC", {8, 16, 32}))
      .add(core::Parameter::list("MDIMA", {8, 16, 32}))
      .add(core::Parameter::list("NDIMB", {8, 16, 32}))
      .add(core::Parameter::list("VWM", {1, 2, 4, 8}))
      .add(core::Parameter::list("VWN", {1, 2, 4, 8}))
      .add(core::Parameter::list("SA", {0, 1}))
      .add(core::Parameter::list("SB", {0, 1}));

  core::ConstraintSet constraints;
  constraints
      .add("MWG % (MDIMC*VWM) == 0", {"MWG", "MDIMC", "VWM"},
           [](const core::Config& c) {
             return c[kMwg] % (c[kMdimc] * c[kVwm]) == 0;
           })
      .add("NWG % (NDIMC*VWN) == 0", {"NWG", "NDIMC", "VWN"},
           [](const core::Config& c) {
             return c[kNwg] % (c[kNdimc] * c[kVwn]) == 0;
           })
      .add("MWG % (MDIMA*VWM) == 0", {"MWG", "MDIMA", "VWM"},
           [](const core::Config& c) {
             return c[kMwg] % (c[kMdima] * c[kVwm]) == 0;
           })
      .add("NWG % (NDIMB*VWN) == 0", {"NWG", "NDIMB", "VWN"},
           [](const core::Config& c) {
             return c[kNwg] % (c[kNdimb] * c[kVwn]) == 0;
           })
      .add("KWG % ((MDIMC*NDIMC)/MDIMA) == 0", {"MDIMC", "NDIMC", "MDIMA"},
           [](const core::Config& c) {
             const auto threads = c[kMdimc] * c[kNdimc];
             return threads % c[kMdima] == 0 &&
                    GemmBenchmark::kKwg % (threads / c[kMdima]) == 0;
           })
      .add("KWG % ((MDIMC*NDIMC)/NDIMB) == 0", {"MDIMC", "NDIMC", "NDIMB"},
           [](const core::Config& c) {
             const auto threads = c[kMdimc] * c[kNdimc];
             return threads % c[kNdimb] == 0 &&
                    GemmBenchmark::kKwg % (threads / c[kNdimb]) == 0;
           });
  return core::SearchSpace(std::move(space), std::move(constraints));
}

GemmParams GemmBenchmark::decode(const core::Config& c) {
  return GemmParams{
      static_cast<int>(c[kMwg]),   static_cast<int>(c[kNwg]),
      static_cast<int>(c[kMdimc]), static_cast<int>(c[kNdimc]),
      static_cast<int>(c[kMdima]), static_cast<int>(c[kNdimb]),
      static_cast<int>(c[kVwm]),   static_cast<int>(c[kVwn]),
      static_cast<int>(c[kSa]),    static_cast<int>(c[kSb])};
}

std::optional<double> GemmBenchmark::model_time_ms(
    const core::Config& config, const gpusim::DeviceSpec& device) const {
  const auto prof = models::gemm_profile(decode(config), device);
  if (!prof) return std::nullopt;
  return gpusim::LaunchModel::estimate_ms(device, *prof);
}

}  // namespace bat::kernels
