// Traffic policing: token buckets, per-client limits, IP-group quotas.
//
// The admission layer in front of the tuning API. Two levels, both
// classic token buckets (capacity = burst allowance, refilled at a
// fixed rate, one token per unit request cost):
//
//   * per-client: every distinct IPv4 source gets its own bucket, so
//     one greedy client exhausts its own allowance, not the server;
//   * per-group: clients aggregate into prefix groups (/24 by default)
//     sharing a quota bucket — a botnet-shaped burst from one subnet
//     is bounded even when each member stays under its client limit.
//
// admit() answers allow/deny plus a deterministic retry-after hint
// (how long until the bucket holds enough tokens), which the server
// surfaces as `Retry-After` on 429 responses. A request is charged
// against *both* buckets only when both admit it — a denial consumes
// nothing, so a throttled client's retries do not push its allowance
// further away.
//
// Time is injected (nanoseconds from any monotonic source): production
// passes steady_clock, tests a hand-cranked fake, which is what makes
// burst/refill/429-sequencing assertions exact instead of sleepy.
//
// Thread-safety: admit() takes one internal mutex. At the request
// costs this front-end serves (µs of parsing + handler work per
// admission check) one uncontended mutex is noise; shard it only if a
// profile ever says otherwise.
//
// Bounds: client buckets live in a map capped at max_tracked_clients;
// when full, fully-refilled (idle) buckets are evicted first — an
// address-spraying attacker can only recycle buckets that were at full
// allowance anyway, so eviction never grants tokens a live client had
// already spent.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace bat::net {

/// Deterministic token bucket. Not thread-safe on its own (RateLimiter
/// serializes); time is caller-supplied monotonic nanoseconds.
class TokenBucket {
 public:
  /// `rate_per_sec` tokens accrue per second up to `burst` capacity;
  /// a fresh bucket starts full (burst allowance).
  TokenBucket(double rate_per_sec, double burst);

  /// Takes `cost` tokens if available. False leaves the bucket as-is.
  bool try_acquire(std::uint64_t now_ns, double cost = 1.0);

  /// Seconds until `cost` tokens will be available (0 when they are).
  [[nodiscard]] double retry_after_seconds(std::uint64_t now_ns,
                                           double cost = 1.0) const;

  [[nodiscard]] double tokens(std::uint64_t now_ns) const;
  [[nodiscard]] bool full(std::uint64_t now_ns) const;

 private:
  void refill(std::uint64_t now_ns);

  double rate_;
  double burst_;
  double tokens_;
  std::uint64_t last_ns_ = 0;
};

struct RateLimitOptions {
  /// Per-client sustained requests/second; 0 disables client buckets.
  double per_client_rps = 0.0;
  /// Per-client burst allowance; 0 defaults to per_client_rps.
  double per_client_burst = 0.0;
  /// Shared quota per IP group (prefix aggregate); 0 disables groups.
  double per_group_rps = 0.0;
  double per_group_burst = 0.0;  // 0 defaults to per_group_rps
  /// Clients aggregate into /N prefix groups (default /24).
  int group_prefix_bits = 24;
  /// Client-bucket map cap; idle (full) buckets are evicted beyond it.
  std::size_t max_tracked_clients = 65536;

  [[nodiscard]] bool enabled() const noexcept {
    return per_client_rps > 0.0 || per_group_rps > 0.0;
  }
};

struct Admission {
  bool allowed = true;
  /// Deterministic hint for the Retry-After header (seconds); the
  /// denying scope's bucket-refill time, 0 when allowed.
  double retry_after_seconds = 0.0;
  /// "client" or "group" when denied, nullptr when allowed.
  const char* denied_by = nullptr;
};

class RateLimiter {
 public:
  /// Monotonic nanoseconds. The default reads std::chrono::steady_clock.
  using Clock = std::function<std::uint64_t()>;

  /// `metrics` hosts the bat_ratelimit_* series; null makes a private
  /// registry so standalone limiters (tests) still count correctly.
  explicit RateLimiter(RateLimitOptions options, Clock clock = {},
                       std::shared_ptr<obs::MetricsRegistry> metrics = {});

  /// Charges one request of `cost` tokens from `client_ipv4` (host
  /// byte order). Both scopes must admit before either is charged.
  [[nodiscard]] Admission admit(std::uint32_t client_ipv4,
                                double cost = 1.0);

  [[nodiscard]] const RateLimitOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] std::size_t tracked_clients() const;

  /// The group key `ip` falls into (top group_prefix_bits of the
  /// address). Exposed for tests.
  [[nodiscard]] std::uint32_t group_of(std::uint32_t ipv4) const noexcept;

 private:
  void evict_idle_clients(std::uint64_t now_ns);

  RateLimitOptions options_;
  Clock clock_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint32_t, TokenBucket> clients_;
  std::unordered_map<std::uint32_t, TokenBucket> groups_;

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* allowed_total_;
  obs::Counter* denied_client_total_;
  obs::Counter* denied_group_total_;
  // Declared last: unregisters before mutex_/clients_ die.
  obs::CallbackGuard tracked_clients_gauge_;
};

}  // namespace bat::net
