// The Hotspot analytical model: the launch profile HotspotBenchmark
// hands to gpusim::LaunchModel. Device-invalid launches (too few/many
// threads, shared-memory tile overflow) return nullopt.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>

#include "gpusim/device.hpp"
#include "gpusim/launch_model.hpp"
#include "gpusim/perf_utils.hpp"

namespace bat::kernels::models {

inline constexpr int kHotspotGrid = 4096;  // simulation grid (side length)
inline constexpr int kHotspotSteps = 60;   // time steps per measurement

// Calibrated model constants (see DESIGN.md "calibration notes").
inline constexpr double kL2HaloCompress = 0.35;  // halo re-reads absorbed by L2
inline constexpr double kOpsCell = 20.0;         // arithmetic ops per cell
inline constexpr double kSmemBufs = 1.0;  // single smem buffer + reg ping-pong

/// `P` supplies int members bx, by, tx, ty, tf, unroll_t, sh_power,
/// blocks_per_sm (HotspotParams, decoded by HotspotBenchmark).
template <typename P>
[[nodiscard]] inline std::optional<gpusim::KernelProfile> hotspot_profile(
    const P& p, const gpusim::DeviceSpec& device) {
  using gpusim::KernelProfile;

  const int threads = p.bx * p.by;
  // The kernel requires at least one warp and at most a full block
  // (paper: "the kernel uses at least 32 and at most 1024 threads").
  if (threads < 32 || threads > device.max_threads_per_block) {
    return std::nullopt;
  }

  const int out_w = p.bx * p.tx;  // output tile per block
  const int out_h = p.by * p.ty;
  const int halo = 2 * p.tf;      // input halo for tf fused steps
  const int in_w = out_w + halo;
  const int in_h = out_h + halo;

  // Shared memory: two temperature buffers (ping-pong) plus optionally the
  // power grid for the input tile.
  const double smem_d = static_cast<double>(in_w) * in_h * 4.0 *
                        (kSmemBufs + (p.sh_power ? 1.0 : 0.0));
  if (smem_d > static_cast<double>(device.max_shared_mem_per_block)) {
    return std::nullopt;  // tile does not fit — invalid on this device
  }
  const int smem = static_cast<int>(smem_d);

  // Registers: per-thread tile state; the launch-bounds hint trades
  // registers for resident blocks.
  double regs = 22.0 + 2.2 * (p.tx * p.ty) + 1.0 * p.unroll_t;
  if (device.arch == gpusim::Architecture::kAmpere) regs += 2.0;
  double spill_penalty = 1.0;
  if (p.blocks_per_sm > 0) {
    const double reg_cap = static_cast<double>(device.registers_per_sm) /
                           (p.blocks_per_sm * std::max(threads, 32));
    if (reg_cap < regs) {
      spill_penalty = 1.0 + std::min(1.5, 0.02 * (regs - reg_cap));
      regs = std::max(20.0, reg_cap);
    }
  }
  if (regs > device.max_registers_per_thread) {
    regs = device.max_registers_per_thread;
    spill_penalty *= 1.4;
  }

  const int launches = static_cast<int>(
      gpusim::div_up(kHotspotSteps, static_cast<std::uint64_t>(p.tf)));
  const std::uint64_t grid =
      gpusim::div_up(kHotspotGrid, static_cast<std::uint64_t>(out_w)) *
      gpusim::div_up(kHotspotGrid, static_cast<std::uint64_t>(out_h));

  // --- Compute: the temporal-tiling pyramid recomputes halo cells. ------
  const double cells = static_cast<double>(kHotspotGrid) * kHotspotGrid;
  double amplification = 0.0;
  for (int s = 0; s < p.tf; ++s) {
    const double w = out_w + 2.0 * (p.tf - s - 1);
    const double h = out_h + 2.0 * (p.tf - s - 1);
    amplification += (w * h) / (static_cast<double>(out_w) * out_h);
  }
  amplification /= p.tf;  // normalized redundant-work factor (>= 1)
  const double flops = cells * kOpsCell * kHotspotSteps * amplification;

  // --- DRAM ---------------------------------------------------------------
  // Temperature: each launch reads the halo-extended input tile once and
  // writes the output tile once. Power: cached in shared memory it is read
  // once per launch; without sh_power the kernel re-reads it from global
  // memory on every fused time step — this interaction produces the >10x
  // high-performer cluster of Fig 1b.
  // Halos overlap between adjacent blocks, and the L2 serves about half of
  // those re-reads, compressing the raw geometric overhead.
  const double raw_overhead =
      (static_cast<double>(in_w) * in_h) /
      (static_cast<double>(out_w) * out_h);
  const double tile_read_overhead =
      1.0 + (raw_overhead - 1.0) * kL2HaloCompress;
  const double temp_bytes =
      static_cast<double>(launches) * cells * 4.0 * (tile_read_overhead + 1.0);
  const double power_reads = p.sh_power ? static_cast<double>(launches)
                                        : static_cast<double>(kHotspotSteps);
  // Un-cached power reads miss the streaming pattern (scattered by the
  // block tiling), costing extra sectors per access.
  const double power_penalty = p.sh_power ? 1.0 : 1.6;
  const double power_bytes =
      power_reads * cells * 4.0 * tile_read_overhead * power_penalty;
  double dram_bytes = (temp_bytes + power_bytes) * spill_penalty;
  // Without temporal fusion every step round-trips through L1/L2 with the
  // 5-point neighborhood, thrashing lines across block boundaries.
  if (p.tf == 1) dram_bytes *= 1.4;

  // Coalescing: narrow block_size_x wastes most of each 32-byte sector.
  const double mem_eff = std::clamp(
      gpusim::coalescing_efficiency(
          p.bx >= 32 ? 1.0 : 32.0 / std::max(1, p.bx), 4.0),
      0.08, 1.0);

  // --- Shared-memory traffic ------------------------------------------
  // The 5-point stencil re-uses west/center/east values across a thread's
  // x-tile through registers, leaving about two fresh shared loads per
  // computed cell.
  const double smem_bytes =
      flops / kOpsCell * 2.0 * 4.0 / std::min(4, std::max(1, p.tx));
  const double conflict =
      (p.bx % 32 != 0 && p.bx >= 16) ? 1.25 : 1.0;  // misaligned rows

  double compute_eff = 0.62 * gpusim::unroll_efficiency(p.unroll_t, 0.10, 4);
  compute_eff /= spill_penalty;
  compute_eff = std::clamp(compute_eff, 0.05, 1.0);

  KernelProfile prof;
  prof.grid_blocks = grid * static_cast<std::uint64_t>(launches);
  prof.block_threads = threads;
  prof.regs_per_thread = static_cast<int>(regs);
  prof.smem_per_block = smem;
  prof.flops = flops;
  prof.dram_bytes = dram_bytes;
  prof.smem_bytes = smem_bytes * gpusim::bank_conflict_factor(conflict);
  prof.mem_efficiency = mem_eff;
  prof.compute_efficiency = compute_eff;
  prof.ilp = static_cast<double>(p.tx) * p.ty;
  prof.launches = launches;
  return prof;
}

}  // namespace bat::kernels::models
