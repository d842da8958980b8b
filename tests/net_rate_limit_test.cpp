// Traffic policing: token-bucket and RateLimiter properties under a
// hand-cranked fake clock — burst allowances, refill rates, per-IP-group
// quota isolation, deterministic 429 sequencing, and the bounded-map
// eviction rules. Every assertion is exact: time only moves when the
// test advances it, so there is no sleeping and no tolerance slop.
// tools/ci.sh runs this binary under ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/rate_limit.hpp"

namespace bat::net {
namespace {

constexpr std::uint64_t kSecond = 1'000'000'000ull;

/// Hand-cranked time source. Copies handed to RateLimiter share state.
struct FakeClock {
  std::shared_ptr<std::uint64_t> now_ns = std::make_shared<std::uint64_t>(0);

  RateLimiter::Clock fn() const {
    auto now = now_ns;
    return [now] { return *now; };
  }
  void advance_seconds(double seconds) {
    *now_ns += static_cast<std::uint64_t>(seconds * 1e9);
  }
};

// ------------------------------------------------------------ TokenBucket --

TEST(TokenBucket, FreshBucketHoldsFullBurstAllowance) {
  TokenBucket bucket(/*rate_per_sec=*/1.0, /*burst=*/5.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bucket.try_acquire(0)) << "burst token " << i;
  }
  EXPECT_FALSE(bucket.try_acquire(0));
}

TEST(TokenBucket, RefillsAtConfiguredRateUpToBurstCap) {
  TokenBucket bucket(/*rate_per_sec=*/2.0, /*burst=*/4.0);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.try_acquire(0));
  // 0.5s at 2 tokens/s = exactly one token back.
  EXPECT_TRUE(bucket.try_acquire(kSecond / 2));
  EXPECT_FALSE(bucket.try_acquire(kSecond / 2));
  // A long idle period refills to burst, never beyond it.
  EXPECT_DOUBLE_EQ(bucket.tokens(100 * kSecond), 4.0);
  EXPECT_TRUE(bucket.full(100 * kSecond));
}

TEST(TokenBucket, DenialLeavesTokensUntouched) {
  TokenBucket bucket(1.0, 2.0);
  EXPECT_FALSE(bucket.try_acquire(0, /*cost=*/5.0));
  // The failed oversized acquire consumed nothing.
  EXPECT_DOUBLE_EQ(bucket.tokens(0), 2.0);
  EXPECT_TRUE(bucket.try_acquire(0, 2.0));
}

TEST(TokenBucket, RetryAfterIsTheExactRefillTime) {
  TokenBucket bucket(/*rate_per_sec=*/2.0, /*burst=*/1.0);
  EXPECT_DOUBLE_EQ(bucket.retry_after_seconds(0), 0.0);  // full: available now
  EXPECT_TRUE(bucket.try_acquire(0));
  // Empty at 2 tokens/s: one token is 0.5s away. Probing must not
  // mutate the bucket — repeated asks give the same answer.
  EXPECT_DOUBLE_EQ(bucket.retry_after_seconds(0), 0.5);
  EXPECT_DOUBLE_EQ(bucket.retry_after_seconds(0), 0.5);
  // Halfway through the wait the hint shrinks to match.
  EXPECT_DOUBLE_EQ(bucket.retry_after_seconds(kSecond / 4), 0.25);
  EXPECT_TRUE(bucket.try_acquire(kSecond / 2));
}

// ------------------------------------------------------------ RateLimiter --

RateLimitOptions client_only(double rps, double burst = 0.0) {
  RateLimitOptions options;
  options.per_client_rps = rps;
  options.per_client_burst = burst;  // 0 defaults to rps
  return options;
}

TEST(RateLimiter, Deterministic429Sequence) {
  FakeClock clock;
  RateLimiter limiter(client_only(/*rps=*/1.0, /*burst=*/2.0), clock.fn());
  const std::uint32_t ip = 0x7f000001;  // 127.0.0.1

  // Burst of 2, then a denial whose Retry-After is the exact refill gap.
  EXPECT_TRUE(limiter.admit(ip).allowed);
  EXPECT_TRUE(limiter.admit(ip).allowed);
  const Admission denied = limiter.admit(ip);
  EXPECT_FALSE(denied.allowed);
  EXPECT_STREQ(denied.denied_by, "client");
  EXPECT_DOUBLE_EQ(denied.retry_after_seconds, 1.0);

  // Denials consume nothing: the hint does not drift as retries pile up.
  EXPECT_DOUBLE_EQ(limiter.admit(ip).retry_after_seconds, 1.0);
  EXPECT_DOUBLE_EQ(limiter.admit(ip).retry_after_seconds, 1.0);

  // Waiting the hinted time is exactly enough for one admission.
  clock.advance_seconds(1.0);
  EXPECT_TRUE(limiter.admit(ip).allowed);
  EXPECT_FALSE(limiter.admit(ip).allowed);
}

TEST(RateLimiter, ClientsAreIsolatedFromEachOther) {
  FakeClock clock;
  RateLimiter limiter(client_only(1.0, 1.0), clock.fn());
  EXPECT_TRUE(limiter.admit(0x0a000001).allowed);   // 10.0.0.1
  EXPECT_FALSE(limiter.admit(0x0a000001).allowed);  // its bucket is empty
  // A different client (even in the same /24) has its own allowance.
  EXPECT_TRUE(limiter.admit(0x0a000002).allowed);
  EXPECT_EQ(limiter.tracked_clients(), 2u);
}

TEST(RateLimiter, GroupQuotaBoundsASubnetOfPoliteClients) {
  RateLimitOptions options;
  options.per_client_rps = 100.0;  // generous per client
  options.per_group_rps = 1.0;
  options.per_group_burst = 3.0;  // the /24 shares 3 tokens
  FakeClock clock;
  RateLimiter limiter(options, clock.fn());

  // Three distinct clients in 10.0.0.0/24: each is far under its own
  // limit, but the fourth request exhausts the shared group bucket.
  EXPECT_TRUE(limiter.admit(0x0a000001).allowed);
  EXPECT_TRUE(limiter.admit(0x0a000002).allowed);
  EXPECT_TRUE(limiter.admit(0x0a000003).allowed);
  const Admission denied = limiter.admit(0x0a000004);
  EXPECT_FALSE(denied.allowed);
  EXPECT_STREQ(denied.denied_by, "group");
  EXPECT_DOUBLE_EQ(denied.retry_after_seconds, 1.0);

  // A client from a different /24 is untouched by that group's famine.
  EXPECT_TRUE(limiter.admit(0x0a000101).allowed);  // 10.0.1.1
}

TEST(RateLimiter, GroupDenialDoesNotChargeTheClientBucket) {
  RateLimitOptions options;
  options.per_client_rps = 1.0;
  options.per_client_burst = 1.0;
  options.per_group_rps = 1.0;
  options.per_group_burst = 1.0;
  FakeClock clock;
  RateLimiter limiter(options, clock.fn());

  EXPECT_TRUE(limiter.admit(0x0a000001).allowed);   // drains the group
  EXPECT_FALSE(limiter.admit(0x0a000002).allowed);  // group says no...
  clock.advance_seconds(1.0);                       // ...group refills
  // .2's own bucket must still be full — the denial charged neither
  // scope, so this admission succeeds on both.
  EXPECT_TRUE(limiter.admit(0x0a000002).allowed);
}

TEST(RateLimiter, GroupOfMasksTheConfiguredPrefix) {
  RateLimitOptions options;
  options.per_group_rps = 1.0;
  options.group_prefix_bits = 16;
  RateLimiter limiter(options, [] { return std::uint64_t{0}; });
  EXPECT_EQ(limiter.group_of(0x0a0b0c0d), limiter.group_of(0x0a0bffff));
  EXPECT_NE(limiter.group_of(0x0a0b0c0d), limiter.group_of(0x0a0c0c0d));
}

// max_tracked_clients is floored at 16 by the limiter (a smaller
// tracker would thrash under any real traffic), so the eviction tests
// work at that floor.
constexpr std::size_t kMapCap = 16;

TEST(RateLimiter, IdleClientsAreEvictedAtTheMapCap) {
  RateLimitOptions options = client_only(1.0, 1.0);
  options.max_tracked_clients = kMapCap;
  FakeClock clock;
  RateLimiter limiter(options, clock.fn());

  // Fill the map, then let every bucket refill to idle (full).
  for (std::uint32_t ip = 1; ip <= kMapCap; ++ip) {
    EXPECT_TRUE(limiter.admit(ip).allowed);
  }
  EXPECT_EQ(limiter.tracked_clients(), kMapCap);
  clock.advance_seconds(10.0);

  // New clients recycle idle buckets instead of being refused.
  for (std::uint32_t ip = 100; ip < 100 + kMapCap; ++ip) {
    EXPECT_TRUE(limiter.admit(ip).allowed);
  }
  EXPECT_LE(limiter.tracked_clients(), kMapCap);
}

TEST(RateLimiter, FailsClosedWhenSaturatedWithActiveClients) {
  RateLimitOptions options = client_only(/*rps=*/0.001, /*burst=*/1.0);
  options.max_tracked_clients = kMapCap;
  FakeClock clock;
  RateLimiter limiter(options, clock.fn());

  // Every tracked client spends its whole allowance; at 0.001 rps none
  // is anywhere near idle, so nothing is evictable.
  for (std::uint32_t ip = 1; ip <= kMapCap; ++ip) {
    EXPECT_TRUE(limiter.admit(ip).allowed);
  }
  // One more address cannot be tracked: deny (fail closed) rather than
  // hand an address-spraying attacker an untracked fast path.
  const Admission denied = limiter.admit(kMapCap + 1);
  EXPECT_FALSE(denied.allowed);
  EXPECT_GT(denied.retry_after_seconds, 0.0);
}

TEST(RateLimiter, DisabledScopesAdmitEverything) {
  RateLimitOptions options;  // no rates set
  EXPECT_FALSE(options.enabled());
  RateLimiter limiter(options, [] { return std::uint64_t{0}; });
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(limiter.admit(0x7f000001).allowed);
  }
}

TEST(RateLimiter, SameSubnetClientsThrottleWithoutExemption) {
  // Loopback addresses share the /24 group bucket like anyone else —
  // the behavior the overload CI gate depends on.
  RateLimitOptions options;
  options.per_group_rps = 1.0;
  options.per_group_burst = 2.0;
  FakeClock clock;
  RateLimiter limiter(options, clock.fn());
  EXPECT_TRUE(limiter.admit(0x7f000001).allowed);
  EXPECT_TRUE(limiter.admit(0x7f000002).allowed);
  EXPECT_FALSE(limiter.admit(0x7f000003).allowed);
}

TEST(RateLimiter, CostWeightsChargeHeavyRequestsMore) {
  FakeClock clock;
  RateLimiter limiter(client_only(1.0, 4.0), clock.fn());
  const std::uint32_t ip = 1;
  // One cost-3 request (a session run) plus one cost-1 (a status probe)
  // drain the burst of 4 exactly.
  EXPECT_TRUE(limiter.admit(ip, 3.0).allowed);
  EXPECT_TRUE(limiter.admit(ip, 1.0).allowed);
  const Admission denied = limiter.admit(ip, 3.0);
  EXPECT_FALSE(denied.allowed);
  // Three tokens at 1/s are exactly 3 seconds away.
  EXPECT_DOUBLE_EQ(denied.retry_after_seconds, 3.0);
}

}  // namespace
}  // namespace bat::net
