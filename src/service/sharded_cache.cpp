#include "service/sharded_cache.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace bat::service {

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

// More shards than this buys nothing (they only spread lock
// contention) and the clamp keeps round_up_pow2 away from shift
// overflow on absurd inputs.
constexpr std::size_t kMaxShards = std::size_t{1} << 16;

ShardedMeasurementCache::ShardedMeasurementCache(
    std::shared_ptr<const core::CompiledSpace> compiled, std::size_t shards)
    : compiled_(std::move(compiled)),
      shards_(round_up_pow2(std::clamp<std::size_t>(shards, 1, kMaxShards))) {
  mask_ = shards_.size() - 1;
  if (compiled_ && compiled_->has_valid_set()) {
    by_ordinal_ = true;
    invalid_offset_ = compiled_->num_valid();
  }
}

std::uint64_t ShardedMeasurementCache::key_of(core::ConfigIndex index) const {
  if (!by_ordinal_) return index;
  if (const auto ordinal = compiled_->rank(index)) return *ordinal;
  // Invalid configurations key past the dense ordinal range; no overflow
  // because materialized spaces have cardinality <= 2^20 (Options::
  // materialize_limit), far below 2^64 - num_valid.
  return invalid_offset_ + index;
}

ShardedMeasurementCache::Claim ShardedMeasurementCache::claim(
    core::ConfigIndex index) {
  const auto key = key_of(index);
  auto& shard = shard_of(key);
  std::lock_guard lock(shard.mutex);
  ++shard.lookups;
  const auto [it, inserted] = shard.map.try_emplace(key);
  if (inserted) {
    return Claim{ClaimState::kClaimed, {}};
  }
  if (it->second.ready) {
    ++shard.hits;
    return Claim{ClaimState::kHit, it->second.measurement};
  }
  return Claim{ClaimState::kPending, {}};
}

void ShardedMeasurementCache::publish(core::ConfigIndex index,
                                      const core::Measurement& m) {
  const auto key = key_of(index);
  auto& shard = shard_of(key);
  {
    std::lock_guard lock(shard.mutex);
    auto it = shard.map.find(key);
    BAT_EXPECTS(it != shard.map.end() && !it->second.ready);
    it->second.measurement = m;
    it->second.ready = true;
    ++shard.evaluations;
  }
  shard.cv.notify_all();
}

void ShardedMeasurementCache::abandon(core::ConfigIndex index) {
  const auto key = key_of(index);
  auto& shard = shard_of(key);
  {
    std::lock_guard lock(shard.mutex);
    auto it = shard.map.find(key);
    BAT_EXPECTS(it != shard.map.end() && !it->second.ready);
    shard.map.erase(it);
    ++shard.abandoned;
  }
  shard.cv.notify_all();
}

std::optional<core::Measurement> ShardedMeasurementCache::wait(
    core::ConfigIndex index) {
  const auto key = key_of(index);
  auto& shard = shard_of(key);
  std::unique_lock lock(shard.mutex);
  for (;;) {
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) return std::nullopt;  // abandoned / unclaimed
    if (it->second.ready) {
      ++shard.waited;
      return it->second.measurement;
    }
    // The claim owner is evaluating; publish() and abandon() both
    // notify_all, so every state change re-runs the checks above.
    // (notify_all over notify_one: distinct keys of one shard share
    // this condition variable.)
    shard.cv.wait(lock);
  }
}

std::size_t ShardedMeasurementCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const auto& [key, entry] : shard.map) {
      (void)key;
      total += entry.ready ? 1 : 0;
    }
  }
  return total;
}

ShardedMeasurementCache::Stats ShardedMeasurementCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    total.lookups += shard.lookups;
    total.hits += shard.hits;
    total.waited += shard.waited;
    total.evaluations += shard.evaluations;
    total.abandoned += shard.abandoned;
  }
  return total;
}

}  // namespace bat::service
