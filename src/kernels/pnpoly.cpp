#include "kernels/pnpoly.hpp"

#include <algorithm>
#include <cmath>

#include "gpusim/launch_model.hpp"
#include "kernels/models/pnpoly_model.hpp"

namespace bat::kernels {

namespace {

enum Pos { kBx, kTile, kBetween, kUse };

}  // namespace

PnpolyBenchmark::PnpolyBenchmark() : KernelBenchmark("pnpoly", make_space()) {}

core::SearchSpace PnpolyBenchmark::make_space() {
  // 31 values (Table IV): 32..992 step 32, giving the exact Table VIII
  // cardinality 4 092 = 31 * 11 * 4 * 3.
  std::vector<core::Value> bx;
  for (core::Value x = 32; x <= 992; x += 32) bx.push_back(x);
  std::vector<core::Value> tile{1};
  for (core::Value t = 2; t <= 20; t += 2) tile.push_back(t);  // 11 values

  core::ParamSpace space;
  space.add(core::Parameter::list("block_size_x", bx))
      .add(core::Parameter::list("tile_size", tile))
      .add(core::Parameter::list("between_method", {0, 1, 2, 3}))
      .add(core::Parameter::list("use_method", {0, 1, 2}));

  // Pnpoly has no static constraints: all 4 092 configurations compile
  // (Table VIII lists Cardinality == Constrained == 4 092).
  return core::SearchSpace(std::move(space), core::ConstraintSet{});
}

PnpolyParams PnpolyBenchmark::decode(const core::Config& c) {
  return PnpolyParams{static_cast<int>(c[kBx]), static_cast<int>(c[kTile]),
                      static_cast<int>(c[kBetween]),
                      static_cast<int>(c[kUse])};
}

std::optional<double> PnpolyBenchmark::model_time_ms(
    const core::Config& config, const gpusim::DeviceSpec& device) const {
  const auto prof = models::pnpoly_profile(decode(config), device);
  if (!prof) return std::nullopt;
  return gpusim::LaunchModel::estimate_ms(device, *prof);
}

}  // namespace bat::kernels
