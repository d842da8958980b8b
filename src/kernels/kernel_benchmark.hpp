// Base class for the seven simulated kernel benchmarks.
//
// Each concrete kernel supplies its search space (Tables I-VII) and a
// performance model mapping (decoded config, device) to milliseconds —
// or nullopt when the launch is impossible on that device. This base
// implements the core::Benchmark contract: constraint checking, device
// binding, and deterministic measurement noise.
#pragma once

#include <optional>
#include <string>

#include "core/benchmark.hpp"
#include "gpusim/device.hpp"
#include "gpusim/noise.hpp"

namespace bat::kernels {

class KernelBenchmark : public core::Benchmark {
 public:
  KernelBenchmark(std::string name, core::SearchSpace space,
                  double noise_amplitude = 0.004);

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const core::SearchSpace& space() const override {
    return space_;
  }
  [[nodiscard]] std::size_t device_count() const override;
  [[nodiscard]] const std::string& device_name(
      core::DeviceIndex d) const override;

  [[nodiscard]] core::Measurement evaluate(
      const core::Config& config, core::DeviceIndex device) const override;

  /// Noise-free model time; exposed for calibration tests.
  [[nodiscard]] std::optional<double> model_time(
      const core::Config& config, core::DeviceIndex device) const;

 protected:
  /// The per-kernel analytical model. `config` is already known to satisfy
  /// the static constraints. Returns nullopt for device-invalid launches.
  [[nodiscard]] virtual std::optional<double> model_time_ms(
      const core::Config& config,
      const gpusim::DeviceSpec& device) const = 0;

 private:
  std::string name_;
  core::SearchSpace space_;
  double noise_amplitude_;
  std::uint64_t kernel_id_;
};

}  // namespace bat::kernels
