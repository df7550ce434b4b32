#include "core/view_class_cache.hpp"

#include "support/hash.hpp"

namespace locmm {

ViewClassCache::ViewClassCache(const Config& config)
    : config_(config), shards_(config.shards == 0 ? 16 : config.shards) {
  LOCMM_CHECK(config_.verify_node_limit >= 0);
  LOCMM_CHECK(config_.resident_node_budget >= 0);
}

std::uint64_t ViewClassCache::options_fingerprint(const TSearchOptions& opt) {
  std::uint64_t h = 0xff51afd7ed558ccdull;
  h = hash_combine(h, coeff_bits_exact(opt.tol));
  h = hash_combine(h, static_cast<std::uint64_t>(opt.max_iters));
  h = hash_combine(h, static_cast<std::uint64_t>(opt.exact_lp));
  h = hash_combine(h, static_cast<std::uint64_t>(opt.engine));
  return h;
}

std::uint64_t ViewClassCache::key_of(const ViewTree& view, std::int32_t R,
                                     std::uint64_t fp) {
  return hash_combine(hash_combine(view.canonical_hash(),
                                   static_cast<std::uint64_t>(R)),
                      fp);
}

bool ViewClassCache::matches(const Entry& e, const ViewTree& view,
                             std::int32_t R, std::uint64_t fp) {
  if (e.canonical_hash != view.canonical_hash() || e.R != R || e.fp != fp ||
      e.size != view.size()) {
    return false;
  }
  if (e.verified) return ViewTree::structurally_equal(e.view, view);
  return e.secondary_hash == view.secondary_hash();
}

std::uint64_t ViewClassCache::color_key(std::uint64_t color_a,
                                        std::uint64_t color_b,
                                        std::int32_t rounds, std::int32_t R,
                                        std::uint64_t fp) {
  std::uint64_t h = hash_combine(color_a, color_b);
  h = hash_combine(h, static_cast<std::uint64_t>(rounds));
  h = hash_combine(h, static_cast<std::uint64_t>(R));
  return hash_combine(h, fp);
}

bool ViewClassCache::lookup_color(std::uint64_t color_key, double* x) {
  Shard& shard = shards_[shard_of(color_key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.color_entries.find(color_key);
  if (it == shard.color_entries.end()) return false;
  *x = it->second;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ViewClassCache::insert_color(std::uint64_t color_key, double x) {
  Shard& shard = shards_[shard_of(color_key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.color_entries.emplace(color_key, x);
}

bool ViewClassCache::lookup(const ViewTree& view, std::int32_t R,
                            std::uint64_t fp, double* x) {
  // A truncated view's identity covers only what survived the node budget;
  // distinct views truncated at the same budget would alias.  Callers must
  // cache complete views only.
  LOCMM_CHECK(!view.truncated());
  const std::uint64_t key = key_of(view, R, fp);
  Shard& shard = shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    for (Entry& e : it->second) {
      if (matches(e, view, R, fp)) {
        *x = e.x;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ViewClassCache::insert(const ViewTree& view, std::int32_t R,
                            std::uint64_t fp, double x) {
  LOCMM_CHECK(!view.truncated());  // see lookup
  const std::uint64_t key = key_of(view, R, fp);
  Shard& shard = shards_[shard_of(key)];
  Entry e;
  e.canonical_hash = view.canonical_hash();
  e.secondary_hash = view.secondary_hash();
  e.size = view.size();
  e.R = R;
  e.fp = fp;
  e.x = x;
  // Reserve budget first, roll back on overshoot: concurrent inserts can
  // never settle above resident_node_budget.
  bool keep_copy = false;
  if (view.size() <= config_.verify_node_limit) {
    if (resident_nodes_.fetch_add(view.size(), std::memory_order_relaxed) +
            view.size() <=
        config_.resident_node_budget) {
      keep_copy = true;
    } else {
      resident_nodes_.fetch_sub(view.size(), std::memory_order_relaxed);
    }
  }
  if (keep_copy) {
    e.verified = true;
    // Slim copy: nodes + child index only (what structurally_equal and the
    // hash accessors read), capacity trimmed -- not the whole build arena.
    e.view = view.structural_copy();
  }
  std::lock_guard<std::mutex> lock(shard.mu);
  std::vector<Entry>& bucket = shard.entries[key];
  for (const Entry& existing : bucket) {
    if (matches(existing, view, R, fp)) {
      // Racing duplicate insert: drop ours (values are bit-identical).
      if (e.verified)
        resident_nodes_.fetch_sub(view.size(), std::memory_order_relaxed);
      return;
    }
  }
  bucket.push_back(std::move(e));
}

std::int64_t ViewClassCache::entries() const {
  std::int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, bucket] : shard.entries)
      total += static_cast<std::int64_t>(bucket.size());
  }
  return total;
}

std::int64_t ViewClassCache::color_entries() const {
  std::int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += static_cast<std::int64_t>(shard.color_entries.size());
  }
  return total;
}

void ViewClassCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.entries.clear();
    shard.color_entries.clear();
  }
  hits_ = 0;
  misses_ = 0;
  resident_nodes_ = 0;
}

}  // namespace locmm
