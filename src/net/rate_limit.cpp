#include "net/rate_limit.hpp"

#include <algorithm>
#include <chrono>

namespace bat::net {

namespace {

constexpr double kNsPerSecond = 1e9;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

TokenBucket::TokenBucket(double rate_per_sec, double burst)
    : rate_(std::max(rate_per_sec, 0.0)),
      burst_(std::max(burst, 1.0)),
      tokens_(burst_) {}

void TokenBucket::refill(std::uint64_t now_ns) {
  if (now_ns <= last_ns_) return;  // monotonic source; never refund
  // No "uninitialized" sentinel: a fresh bucket is full, so crediting
  // the whole epoch-to-first-use gap clamps harmlessly at burst. (A
  // sentinel would break fake clocks that legitimately start at 0.)
  const double elapsed =
      static_cast<double>(now_ns - last_ns_) / kNsPerSecond;
  tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
  last_ns_ = now_ns;
}

bool TokenBucket::try_acquire(std::uint64_t now_ns, double cost) {
  refill(now_ns);
  if (tokens_ < cost) return false;
  tokens_ -= cost;
  return true;
}

double TokenBucket::retry_after_seconds(std::uint64_t now_ns,
                                        double cost) const {
  TokenBucket probe = *this;  // refill without mutating the real bucket
  probe.refill(now_ns);
  if (probe.tokens_ >= cost) return 0.0;
  if (rate_ <= 0.0) return 3600.0;  // burst-only bucket: park the client
  return (cost - probe.tokens_) / rate_;
}

double TokenBucket::tokens(std::uint64_t now_ns) const {
  TokenBucket probe = *this;
  probe.refill(now_ns);
  return probe.tokens_;
}

bool TokenBucket::full(std::uint64_t now_ns) const {
  return tokens(now_ns) >= burst_;
}

RateLimiter::RateLimiter(RateLimitOptions options, Clock clock,
                         std::shared_ptr<obs::MetricsRegistry> metrics)
    : options_(options),
      clock_(std::move(clock)),
      metrics_(metrics ? std::move(metrics)
                       : std::make_shared<obs::MetricsRegistry>()) {
  if (!clock_) clock_ = steady_now_ns;
  if (options_.per_client_burst <= 0.0) {
    options_.per_client_burst = options_.per_client_rps;
  }
  if (options_.per_group_burst <= 0.0) {
    options_.per_group_burst = options_.per_group_rps;
  }
  options_.group_prefix_bits =
      std::clamp(options_.group_prefix_bits, 0, 32);
  options_.max_tracked_clients =
      std::max<std::size_t>(options_.max_tracked_clients, 16);

  allowed_total_ = metrics_->counter(
      "bat_ratelimit_allowed_total", "Requests admitted by the rate limiter");
  denied_client_total_ =
      metrics_->counter("bat_ratelimit_denied_total",
                        "Requests denied by the rate limiter, by scope",
                        {{"scope", "client"}});
  denied_group_total_ =
      metrics_->counter("bat_ratelimit_denied_total",
                        "Requests denied by the rate limiter, by scope",
                        {{"scope", "group"}});
  tracked_clients_gauge_ = metrics_->callback(
      "bat_ratelimit_tracked_clients",
      "Client token buckets currently tracked",
      obs::MetricsRegistry::CallbackKind::kGauge, {},
      [this] { return static_cast<double>(tracked_clients()); });
}

std::uint32_t RateLimiter::group_of(std::uint32_t ipv4) const noexcept {
  const int bits = options_.group_prefix_bits;
  if (bits <= 0) return 0;                 // one global group
  if (bits >= 32) return ipv4;             // degenerate: group == client
  const std::uint32_t mask = ~((1u << (32 - bits)) - 1u);
  return ipv4 & mask;
}

std::size_t RateLimiter::tracked_clients() const {
  std::lock_guard lock(mutex_);
  return clients_.size();
}

void RateLimiter::evict_idle_clients(std::uint64_t now_ns) {
  if (clients_.size() < options_.max_tracked_clients) return;
  for (auto it = clients_.begin(); it != clients_.end();) {
    it = it->second.full(now_ns) ? clients_.erase(it) : std::next(it);
  }
  // All buckets mid-drain (every tracked client actively throttled):
  // keep them — forgetting a live bucket would hand its owner a fresh
  // burst. The map is bounded by max_tracked_clients either way.
}

Admission RateLimiter::admit(std::uint32_t client_ipv4, double cost) {
  if (!options_.enabled()) return {};
  const std::uint64_t now = clock_();
  std::lock_guard lock(mutex_);

  TokenBucket* client = nullptr;
  if (options_.per_client_rps > 0.0) {
    auto it = clients_.find(client_ipv4);
    if (it == clients_.end()) {
      evict_idle_clients(now);
      if (clients_.size() >= options_.max_tracked_clients) {
        // Saturated tracker: fail closed with a short, fixed hint.
        denied_client_total_->add();
        return {false, 1.0, "client"};
      }
      it = clients_
               .emplace(client_ipv4,
                        TokenBucket(options_.per_client_rps,
                                    options_.per_client_burst))
               .first;
    }
    client = &it->second;
    if (client->tokens(now) < cost) {
      denied_client_total_->add();
      return {false, client->retry_after_seconds(now, cost), "client"};
    }
  }

  TokenBucket* group = nullptr;
  if (options_.per_group_rps > 0.0) {
    const std::uint32_t key = group_of(client_ipv4);
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      // Same bound as clients: a source spraying addresses across
      // subnets must not grow this map without limit either.
      if (groups_.size() >= options_.max_tracked_clients) {
        for (auto g = groups_.begin(); g != groups_.end();) {
          g = g->second.full(now) ? groups_.erase(g) : std::next(g);
        }
        if (groups_.size() >= options_.max_tracked_clients) {
          denied_group_total_->add();
          return {false, 1.0, "group"};
        }
      }
      it = groups_
               .emplace(key, TokenBucket(options_.per_group_rps,
                                         options_.per_group_burst))
               .first;
    }
    group = &it->second;
    if (group->tokens(now) < cost) {
      denied_group_total_->add();
      return {false, group->retry_after_seconds(now, cost), "group"};
    }
  }

  // Both scopes admit: charge both (checked above, so these succeed).
  if (client != nullptr) (void)client->try_acquire(now, cost);
  if (group != nullptr) (void)group->try_acquire(now, cost);
  allowed_total_->add();
  return {};
}

}  // namespace bat::net
