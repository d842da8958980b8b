// The Pnpoly analytical model: the launch profile PnpolyBenchmark hands
// to gpusim::LaunchModel. The single device-invalid case (register file
// overflow) returns nullopt.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "gpusim/device.hpp"
#include "gpusim/launch_model.hpp"
#include "gpusim/perf_utils.hpp"

namespace bat::kernels::models {

inline constexpr int kPnpolyPoints = 20'000'000;
inline constexpr int kPnpolyVertices = 600;

/// `P` supplies int members block_size_x, tile_size, between_method,
/// use_method (PnpolyParams, decoded by PnpolyBenchmark).
template <typename P>
[[nodiscard]] inline std::optional<gpusim::KernelProfile> pnpoly_profile(
    const P& p, const gpusim::DeviceSpec& device) {
  using gpusim::KernelProfile;

  const std::uint64_t grid = gpusim::div_up(
      kPnpolyPoints, static_cast<std::uint64_t>(p.block_size_x) * p.tile_size);

  // --- Instruction mix of the algorithmic variants -----------------------
  // between_method: 0 = division-based slope test, 1 = multiply-compare,
  // 2 = fma-based rearrangement, 3 = branchless integer/select tricks.
  // use_method: 0 = branchy crossing counter, 1 = XOR toggle, 2 = LUT.
  // The fma variant exploits Ampere's doubled FP32 pipes; the INT/select
  // variants co-issue on Turing's dedicated INT32 pipe. The resulting
  // architecture-specific best variant is what makes Pnpoly the paper's
  // worst portability case (58.5% moving a 3090 optimum to Turing).
  const bool turing = device.arch == gpusim::Architecture::kTuring;
  double ops_per_edge = 11.0;
  double method_eff = 1.0;
  switch (p.between_method) {
    case 0:  // division stalls the SFU pipe on every edge
      ops_per_edge = 16.0;
      method_eff = 0.50;
      break;
    case 1:  // multiply-compare: solid everywhere
      ops_per_edge = 11.5;
      method_eff = 1.00;
      break;
    case 2:  // fma rearrangement feeds Ampere's doubled FP32 datapath
      ops_per_edge = 10.0;
      method_eff = turing ? 0.90 : 1.32;
      break;
    case 3:  // integer/select tricks co-issue on Turing's INT pipe
      ops_per_edge = 10.5;
      method_eff = turing ? 1.30 : 0.92;
      break;
  }
  switch (p.use_method) {
    case 0: method_eff *= 0.85; break;                  // divergent branches
    case 1: method_eff *= 1.00; break;                  // xor toggle
    case 2: method_eff *= turing ? 1.12 : 0.94; break;  // LUT/select
  }
  const double flops =
      static_cast<double>(kPnpolyPoints) * kPnpolyVertices * (ops_per_edge + 2.0);
  // Each vertex-loop iteration fetches the edge endpoints once and tests
  // `tile_size` points against them, so larger tiles amortize the fetch
  // and loop overhead (with a register-pressure cliff handled below).
  const double amortize =
      (ops_per_edge * p.tile_size) / (ops_per_edge * p.tile_size + 14.0);
  // Block-size resonance with the warp schedulers / reorder window: the
  // empirically-best block size sits mid-range and differs per family.
  const double bx_peak =
      device.arch == gpusim::Architecture::kTuring ? 256.0 : 384.0;
  const double bx_resonance =
      1.0 - 0.09 * std::abs(std::log2(static_cast<double>(p.block_size_x) /
                                      bx_peak)) /
                2.0;
  double compute_eff =
      std::clamp(0.72 * method_eff * amortize * bx_resonance, 0.05, 1.0);

  // --- Registers / occupancy --------------------------------------------
  double regs = 18.0 + 2.6 * p.tile_size;
  if (p.between_method == 2) regs += 4.0;  // fma temporaries
  if (device.arch == gpusim::Architecture::kAmpere) regs += 4.0;
  if (regs * p.block_size_x > device.registers_per_sm) {
    return std::nullopt;  // block cannot be scheduled at all
  }

  // --- Memory: points streamed once, vertices from constant cache. ------
  const double dram_bytes =
      static_cast<double>(kPnpolyPoints) * (8.0 + 1.0);  // xy in, flag out
  // tile_size > 1 makes each thread read a strided column of points.
  const double mem_eff = std::clamp(
      gpusim::coalescing_efficiency(static_cast<double>(p.tile_size), 8.0),
      0.15, 1.0);

  KernelProfile prof;
  prof.grid_blocks = grid;
  prof.block_threads = p.block_size_x;
  prof.regs_per_thread = static_cast<int>(regs);
  prof.smem_per_block = 0;
  prof.flops = flops;
  prof.dram_bytes = dram_bytes;
  prof.smem_bytes = 0.0;
  prof.mem_efficiency = mem_eff;
  prof.compute_efficiency = compute_eff;
  prof.ilp = std::min(8.0, static_cast<double>(p.tile_size));
  return prof;
}

}  // namespace bat::kernels::models
