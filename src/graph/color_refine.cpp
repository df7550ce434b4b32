#include "graph/color_refine.hpp"

#include <unordered_map>
#include <utility>

#include "support/hash.hpp"

namespace locmm {

namespace {

// Seeds of the two independent colour streams.
constexpr std::uint64_t kSeedA = 0x517cc1b727220a95ull;
constexpr std::uint64_t kSeedB = 0x2545f4914f6cdd1dull;

// A 128-bit two-stream WL colour, usable as a hash-map key.
struct Color {
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const Color&, const Color&) = default;
};

struct ColorHash {
  std::size_t operator()(const Color& c) const {
    return static_cast<std::size_t>(hash_combine(c.a, c.b));
  }
};

// The two pieces of the recurrence.  Colours are only comparable across
// solves (via ViewClassCache::color_key) if every round hashes the
// identical byte sequence.
Color initial_color(const CommGraph& g, NodeId node) {
  const auto type = static_cast<std::uint64_t>(g.type(node));
  const auto deg = static_cast<std::uint64_t>(g.degree(node));
  const std::uint64_t cdeg =
      g.type(node) == NodeType::kAgent
          ? static_cast<std::uint64_t>(g.constraint_degree(node))
          : 0;
  Color c;
  c.a = hash_combine(hash_combine(hash_combine(kSeedA, type), deg), cdeg);
  c.b = hash_combine(hash_combine(hash_combine(kSeedB, type), deg), cdeg);
  return c;
}

void fold_neighbor(Color& h, const Color& u, std::uint64_t back_port,
                   std::uint64_t coeff_bits) {
  h.a = hash_combine(hash_combine(hash_combine(h.a, u.a), back_port),
                     coeff_bits);
  h.b = hash_combine(hash_combine(hash_combine(h.b, u.b), back_port),
                     coeff_bits);
}

// Counts the distinct colours over all nodes (the partition size; refinement
// only splits, so an unchanged count means a stable partition).
std::int64_t count_classes(const std::vector<Color>& colors) {
  std::unordered_map<Color, std::int32_t, ColorHash> seen;
  seen.reserve(colors.size());
  for (const Color& c : colors) seen.emplace(c, 0);
  return static_cast<std::int64_t>(seen.size());
}

}  // namespace

ViewClasses refine_view_classes(const CommGraph& g, std::int32_t depth,
                                bool full_depth) {
  LOCMM_CHECK(depth >= 0);
  const auto n = static_cast<std::size_t>(g.num_nodes());

  // Back ports: for the neighbour u at port p of v, the port at u leading
  // back to v (part of the view structure -- the child's parent_port).
  // Resolved by the same CommGraph::back_port the view build uses, so the
  // WL colours and the materialized views can never disagree on it.
  std::vector<std::int64_t> offsets(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    offsets[v + 1] =
        offsets[v] + g.degree(static_cast<NodeId>(v));
  }
  std::vector<std::int32_t> back_port(static_cast<std::size_t>(offsets[n]));
  for (std::size_t v = 0; v < n; ++v) {
    const auto deg = g.degree(static_cast<NodeId>(v));
    for (std::int32_t p = 0; p < deg; ++p) {
      back_port[static_cast<std::size_t>(offsets[v]) +
                static_cast<std::size_t>(p)] =
          g.back_port(static_cast<NodeId>(v), p);
    }
  }

  // c_0: the node's own local input.
  std::vector<Color> cur(n), next(n);
  for (std::size_t v = 0; v < n; ++v) {
    cur[v] = initial_color(g, static_cast<NodeId>(v));
  }

  // With full_depth, the hash streams run for ALL `depth` rounds -- never
  // cut short -- so the final colours fingerprint the full depth-`depth`
  // unfolding.  Within one instance the stable partition argument lets them
  // stop at stabilization (the !full_depth mode), but full-depth colours
  // double as cross-solve cache keys (ViewClassCache::color_key), and a
  // depth-t colour of a round-t-stable partition does NOT determine the
  // depth-D view of agents from a *different* instance: two instances can
  // stabilize at the same t with agents whose depth-t unfoldings coincide
  // while the depth-D ones differ.  The class-splitting bookkeeping
  // (count_classes) always stops early either way: a stable partition
  // cannot split again, so the remaining full-depth rounds cost one O(|E|)
  // hash sweep each and no hash-map work.
  ViewClasses out;
  std::int64_t classes = count_classes(cur);
  for (std::int32_t round = 0; round < depth; ++round) {
    for (std::size_t v = 0; v < n; ++v) {
      const auto neigh = g.neighbors(static_cast<NodeId>(v));
      Color h = cur[v];  // fold the previous colour in: refinement-only
      for (std::size_t p = 0; p < neigh.size(); ++p) {
        const auto u = static_cast<std::size_t>(neigh[p].to);
        const auto bp = static_cast<std::uint64_t>(
            back_port[static_cast<std::size_t>(offsets[v]) + p]);
        fold_neighbor(h, cur[u], bp, coeff_bits_exact(neigh[p].coeff));
      }
      next[v] = h;
    }
    cur.swap(next);
    out.rounds = round + 1;
    if (!out.stabilized) {
      const std::int64_t now = count_classes(cur);
      LOCMM_DCHECK(now >= classes);
      if (now == classes) {
        out.stabilized = true;
        out.stable_rounds = round + 1;
        if (!full_depth) break;
      } else {
        classes = now;
      }
    }
  }
  if (!out.stabilized) out.stable_rounds = out.rounds;

  // Dense agent classes in first-seen order over agent ids.
  const auto agents = static_cast<std::size_t>(g.num_agents());
  out.class_of.assign(agents, -1);
  std::unordered_map<Color, std::int32_t, ColorHash> ids;
  ids.reserve(agents);
  for (std::size_t v = 0; v < agents; ++v) {
    const Color& c = cur[static_cast<std::size_t>(
        g.agent_node(static_cast<AgentId>(v)))];
    auto [it, inserted] =
        ids.emplace(c, static_cast<std::int32_t>(out.representative.size()));
    if (inserted) {
      out.representative.push_back(static_cast<AgentId>(v));
      out.class_size.push_back(0);
      out.color_a.push_back(c.a);
      out.color_b.push_back(c.b);
    }
    out.class_of[v] = it->second;
    ++out.class_size[static_cast<std::size_t>(it->second)];
  }
  return out;
}

}  // namespace locmm
