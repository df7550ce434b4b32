// Tests for the wire codec (dist/wire.hpp): byte-exact round trips of nodes,
// message frames and whole views across every generator family (pinning
// ViewTree::byte_size() == encode_view().size() -- byte_size is a quote of
// the encoder, not a parallel formula), and a hostile-bytes corpus against
// the delivery-boundary decoder: truncations, trailing garbage, unknown
// kinds, count lies, field overflows, non-canonical headers, preorder
// structure damage, and NaN payload bit patterns (all of which must
// checksum distinctly and decode safely).
#include "dist/wire.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "dist/fault.hpp"
#include "gen/generators.hpp"
#include "graph/comm_graph.hpp"
#include "graph/view_tree.hpp"
#include "support/hash.hpp"
#include "support/wire_layout.hpp"
#include "transform/transform.hpp"

namespace locmm {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// Re-stamps a valid checksum over a (possibly doctored) frame, modelling an
// adversary that fixes the digest after tampering: whatever it hides must be
// caught by the structural layers instead.
void restamp(std::vector<std::uint8_t>& frame) {
  ASSERT_GE(frame.size(), 8u);
  store_le(frame.data() + frame.size() - 8,
           frame_checksum({frame.data(), frame.size() - 8}), 8);
}

std::array<std::uint8_t, 13> raw_node(const WireHeader& h, double coeff) {
  std::array<std::uint8_t, 13> bytes{};
  store_le(bytes.data(), pack_wire_header(h), 5);
  store_le(bytes.data() + 5, std::bit_cast<std::uint64_t>(coeff), 8);
  return bytes;
}

// Builds a view frame straight from raw node bytes (bypassing the encoder's
// validity CHECKs) with a correct checksum: the hostile-structure probe.
std::vector<std::uint8_t> raw_view_frame(
    const std::vector<std::array<std::uint8_t, 13>>& nodes) {
  std::vector<std::uint8_t> f;
  f.push_back(2);  // kind = view
  f.resize(5);
  store_le(f.data() + 1, nodes.size(), 4);
  for (const auto& n : nodes) f.insert(f.end(), n.begin(), n.end());
  f.resize(f.size() + 8);
  restamp(f);
  return f;
}

WireDecodeStatus decode_status(const std::vector<std::uint8_t>& frame) {
  Message out;
  return decode_message_frame(frame, out);
}

std::vector<WireNode> valid_blob() {
  WireNode root;
  root.type = NodeType::kAgent;
  root.degree = 3;
  root.constraint_degree = 2;
  root.parent_port = 1;
  root.parent_coeff = 1.25;
  root.num_children = 2;
  WireNode c1;
  c1.type = NodeType::kConstraint;
  c1.degree = 2;
  c1.parent_port = 0;
  c1.parent_coeff = 0.75;
  c1.num_children = 0;
  WireNode c2;
  c2.type = NodeType::kObjective;
  c2.degree = 2;
  c2.parent_port = 1;
  c2.parent_coeff = 1.0;
  c2.num_children = 0;
  return {root, c1, c2};
}

void expect_node_eq(const WireNode& a, const WireNode& b,
                    const std::string& what) {
  EXPECT_EQ(a.type, b.type) << what;
  EXPECT_EQ(a.degree, b.degree) << what;
  EXPECT_EQ(a.constraint_degree, b.constraint_degree) << what;
  EXPECT_EQ(a.parent_port, b.parent_port) << what;
  EXPECT_EQ(a.num_children, b.num_children) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.parent_coeff),
            std::bit_cast<std::uint64_t>(b.parent_coeff))
      << what;
}

// ---------------------------------------------------------------------------
// Node codec
// ---------------------------------------------------------------------------

TEST(WireNodeCodec, RoundTripsEveryFieldIncludingCoeffBitPatterns) {
  std::vector<WireNode> cases = valid_blob();
  WireNode big;
  big.type = NodeType::kAgent;
  big.degree = static_cast<std::int32_t>(kWireMaxDegree);
  big.constraint_degree =
      static_cast<std::int32_t>(kWireMaxDegree - kWireMaxObjDeg);
  big.parent_port = static_cast<std::int32_t>(kWireMaxDegree) - 1;
  big.num_children = static_cast<std::int32_t>(kWireMaxDegree);
  cases.push_back(big);
  WireNode rootish = cases[0];
  rootish.parent_port = -1;  // whole-view roots have no parent edge
  cases.push_back(rootish);

  const double coeffs[] = {0.0, -0.0, 1.0, -3.25e-12,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::bit_cast<double>(0x7ff0000000000001ull)};
  for (WireNode w : cases) {
    for (const double c : coeffs) {
      w.parent_coeff = c;
      std::uint8_t bytes[13];
      encode_wire_node(w, bytes);
      WireNode out;
      ASSERT_TRUE(decode_wire_node(bytes, out));
      expect_node_eq(w, out, "node round trip");
    }
  }
}

TEST(WireNodeCodec, RejectsOutOfRangeAndNonCanonicalHeaders) {
  const auto rejected = [](const WireHeader& h) {
    const auto bytes = raw_node(h, 1.0);
    WireNode out;
    return !decode_wire_node(bytes.data(), out);
  };
  const WireHeader ok = {.type = 0, .degree = 3, .pport1 = 2, .nchild = 2,
                         .objdeg = 1};
  EXPECT_FALSE(rejected(ok));
  EXPECT_TRUE(rejected({.type = 3, .degree = 3, .pport1 = 2, .nchild = 2,
                        .objdeg = 1}));  // bad type
  EXPECT_TRUE(rejected({.type = 0, .degree = 0, .pport1 = 0, .nchild = 0,
                        .objdeg = 0}));  // zero degree
  EXPECT_TRUE(rejected({.type = 0, .degree = 3, .pport1 = 4, .nchild = 2,
                        .objdeg = 1}));  // parent port past the degree
  EXPECT_TRUE(rejected({.type = 0, .degree = 3, .pport1 = 2, .nchild = 4,
                        .objdeg = 1}));  // child count past the degree
  EXPECT_TRUE(rejected({.type = 0, .degree = 3, .pport1 = 2, .nchild = 2,
                        .objdeg = 4}));  // objective degree past the degree
  // A relay whose objective-degree field is nonzero has no encoder origin:
  // the decoder must reject the non-canonical header even though every
  // field is individually in range.
  EXPECT_TRUE(rejected({.type = 1, .degree = 3, .pport1 = 2, .nchild = 2,
                        .objdeg = 1}));
  EXPECT_TRUE(rejected({.type = 2, .degree = 3, .pport1 = 2, .nchild = 2,
                        .objdeg = 1}));
}

// ---------------------------------------------------------------------------
// Message frames
// ---------------------------------------------------------------------------

TEST(WireFrames, ByteSizeIsTheEncoderNotAFormula) {
  Message none;
  EXPECT_EQ(encode_message(none).size(), 0u);
  EXPECT_EQ(none.byte_size(), 0);

  const Message s = Message::make_scalar(2.5);
  EXPECT_EQ(static_cast<std::int64_t>(encode_message(s).size()),
            s.byte_size());
  EXPECT_EQ(s.byte_size(), kScalarFrameBytes);

  const Message v = Message::make_view(valid_blob());
  EXPECT_EQ(static_cast<std::int64_t>(encode_message(v).size()),
            v.byte_size());
  EXPECT_EQ(v.byte_size(), view_frame_bytes(3));
}

TEST(WireFrames, ScalarAndViewRoundTripBitwise) {
  for (const double value : {1.7, 0.0, -0.0, -3.25e-12,
                             std::numeric_limits<double>::infinity()}) {
    const std::vector<std::uint8_t> f =
        encode_message(Message::make_scalar(value));
    Message out;
    ASSERT_EQ(decode_message_frame(f, out), WireDecodeStatus::kOk);
    EXPECT_EQ(out.kind, Message::Kind::kScalar);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.scalar),
              std::bit_cast<std::uint64_t>(value));
  }

  const std::vector<WireNode> blob = valid_blob();
  const std::vector<std::uint8_t> f =
      encode_message(Message::make_view(blob));
  Message out;
  ASSERT_EQ(decode_message_frame(f, out), WireDecodeStatus::kOk);
  EXPECT_EQ(out.kind, Message::Kind::kView);
  ASSERT_EQ(out.view.size(), blob.size());
  for (std::size_t i = 0; i < blob.size(); ++i)
    expect_node_eq(blob[i], out.view[i], "blob node " + std::to_string(i));

  Message empty;
  EXPECT_EQ(decode_message_frame({}, empty), WireDecodeStatus::kOk);
  EXPECT_EQ(empty.kind, Message::Kind::kNone);
}

TEST(WireFrames, NaNPayloadsChecksumDistinctlyAndDecodeSafely) {
  // Distinct NaN encodings (quiet/signalling, different payload bits, both
  // signs) must stay distinct through encode -> checksum -> decode: the
  // checksum folds raw bit patterns, and the decoder hands them back
  // bit-exactly without ever doing arithmetic on them.
  const std::uint64_t nan_bits[] = {
      0x7ff8000000000000ull, 0x7ff8000000000001ull, 0x7ff0000000000001ull,
      0xfff8000000000000ull, 0xfff0deadbeef0001ull, 0x7fffffffffffffffull};
  std::set<std::uint64_t> checksums;
  for (const std::uint64_t bits : nan_bits) {
    const double nan = std::bit_cast<double>(bits);
    const Message m = Message::make_scalar(nan);
    const std::vector<std::uint8_t> f = encode_message(m);
    checksums.insert(load_le(f.data() + f.size() - 8, 8));
    Message out;
    ASSERT_EQ(decode_message_frame(f, out), WireDecodeStatus::kOk);
    EXPECT_TRUE(std::isnan(out.scalar));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.scalar), bits);
  }
  EXPECT_EQ(checksums.size(), std::size(nan_bits));
}

TEST(WireFrames, HostileBytesCorpus) {
  const std::vector<std::uint8_t> scalar =
      encode_message(Message::make_scalar(1.5));
  const std::vector<std::uint8_t> view =
      encode_message(Message::make_view(valid_blob()));

  // Every strict prefix is truncated; checksums cannot save it.
  for (const auto& clean : {scalar, view}) {
    for (std::size_t len = 1; len < clean.size(); ++len) {
      Message out;
      const WireDecodeStatus st =
          decode_message_frame({clean.data(), len}, out);
      EXPECT_NE(st, WireDecodeStatus::kOk) << "prefix " << len;
      EXPECT_EQ(out.kind, Message::Kind::kNone) << "prefix " << len;
    }
    // Trailing garbage is rejected even when the original bytes are intact.
    std::vector<std::uint8_t> longer = clean;
    longer.push_back(0);
    EXPECT_EQ(decode_status(longer), WireDecodeStatus::kTrailingBytes);
  }

  // Unknown kind bytes, with the checksum honestly re-stamped: kBadKind.
  for (const std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{3},
                                  std::uint8_t{0xff}}) {
    std::vector<std::uint8_t> f = scalar;
    f[0] = kind;
    restamp(f);
    EXPECT_EQ(decode_status(f), WireDecodeStatus::kBadKind) << int(kind);
  }

  // A lying node count (re-stamped): the frame length no longer matches.
  {
    std::vector<std::uint8_t> f = view;
    store_le(f.data() + 1, 2, 4);
    restamp(f);
    EXPECT_EQ(decode_status(f), WireDecodeStatus::kTrailingBytes);
    store_le(f.data() + 1, 4, 4);
    restamp(f);
    EXPECT_EQ(decode_status(f), WireDecodeStatus::kTruncated);
    // The hostile extreme: count = 2^32 - 1 must fail the length check
    // cheaply (64-bit arithmetic, no allocation), not attempt a 52 GB
    // resize.
    store_le(f.data() + 1, 0xffffffffull, 4);
    restamp(f);
    EXPECT_EQ(decode_status(f), WireDecodeStatus::kTruncated);
  }

  // Plain bit corruption without re-stamping: the checksum layer.
  {
    std::vector<std::uint8_t> f = view;
    f[7] ^= 0x10;
    EXPECT_EQ(decode_status(f), WireDecodeStatus::kBadChecksum);
  }

  // Field overflows behind a valid checksum: kBadNode.
  {
    const WireHeader bad = {.type = 0, .degree = 3, .pport1 = 5, .nchild = 0,
                            .objdeg = 0};
    EXPECT_EQ(decode_status(raw_view_frame({raw_node(bad, 1.0)})),
              WireDecodeStatus::kBadNode);
  }

  // Structure damage behind a valid checksum and valid nodes: kBadStructure.
  const WireHeader leafish = {.type = 1, .degree = 2, .pport1 = 1,
                              .nchild = 0, .objdeg = 0};
  {
    // Root claims two subtrees but only one follows: preorder underflow.
    const WireHeader root2 = {.type = 0, .degree = 3, .pport1 = 2,
                              .nchild = 2, .objdeg = 2};
    EXPECT_EQ(decode_status(raw_view_frame(
                  {raw_node(root2, 1.0), raw_node(leafish, 1.0)})),
              WireDecodeStatus::kBadStructure);
  }
  {
    // Two complete trees side by side: a forest, not one blob.
    EXPECT_EQ(decode_status(raw_view_frame(
                  {raw_node(leafish, 1.0), raw_node(leafish, 1.0)})),
              WireDecodeStatus::kBadStructure);
  }
}

// ---------------------------------------------------------------------------
// Whole-view codec, across every generator family
// ---------------------------------------------------------------------------

struct Family {
  std::string name;
  MaxMinInstance inst;
};

std::vector<Family> all_families() {
  std::vector<Family> fams;
  fams.push_back({"random_special",
                  random_special_form({.num_agents = 10, .delta_k = 3}, 7)});
  fams.push_back(
      {"random_general",
       to_special_form(random_general({.num_agents = 12}, 3)).special});
  fams.push_back({"cycle", cycle_instance({.num_agents = 8}, 1)});
  fams.push_back({"path", path_instance(8)});
  fams.push_back({"grid", grid_instance({.rows = 4, .cols = 4}, 2)});
  fams.push_back(
      {"special_grid", special_grid_instance({.rows = 4, .cols = 4}, 3)});
  fams.push_back({"tree", tree_instance({.max_agents = 20}, 4)});
  fams.push_back({"sensor",
                  sensor_instance({.num_sensors = 12, .num_sinks = 4}, 5)});
  fams.push_back({"bandwidth",
                  bandwidth_instance({.num_routers = 8, .num_chords = 3,
                                      .num_customers = 5}, 6)});
  fams.push_back({"regular",
                  regular_special_instance({.num_objectives = 6}, 8)});
  fams.push_back({"circulant",
                  circulant_special_instance({.num_objectives = 8}, 9)});
  fams.push_back({"layered", layered_instance({.delta_k = 2, .layers = 4,
                                               .width = 2, .twist = 1})});
  return fams;
}

TEST(WireViewCodec, RoundTripsEveryGeneratorFamily) {
  for (const Family& fam : all_families()) {
    const CommGraph g(fam.inst);
    // A few roots of each type, a few depths -- including depth 0 (a
    // single-node view) and the engines' R = 2 gather radius.
    const NodeId roots[] = {g.agent_node(0),
                            g.constraint_node(0),
                            g.objective_node(0),
                            g.agent_node(g.num_agents() - 1)};
    for (const NodeId root : roots) {
      for (const std::int32_t depth : {0, 1, 3, 7}) {
        const ViewTree v = ViewTree::build(g, root, depth);
        const std::vector<std::uint8_t> bytes = encode_view(v);
        ASSERT_EQ(static_cast<std::int64_t>(bytes.size()), v.byte_size())
            << fam.name << " root " << root << " depth " << depth;
        ViewTree back;
        ASSERT_EQ(decode_view(bytes, v.depth(), back), WireDecodeStatus::kOk)
            << fam.name << " root " << root << " depth " << depth;
        EXPECT_TRUE(ViewTree::structurally_equal(v, back))
            << fam.name << " root " << root << " depth " << depth;
        // And the decoded tree re-encodes to the identical bytes: the codec
        // is a bijection on canonical payloads.
        EXPECT_EQ(encode_view(back), bytes)
            << fam.name << " root " << root << " depth " << depth;
      }
    }
  }
}

TEST(WireViewCodec, RejectsNonCanonicalPayloads) {
  const CommGraph g(cycle_instance({.num_agents = 6}, 1));
  const ViewTree v = ViewTree::build(g, g.agent_node(0), 3);
  const std::vector<std::uint8_t> bytes = encode_view(v);

  ViewTree out;
  // Sizes that are not a whole number of nodes.
  EXPECT_EQ(decode_view({bytes.data(), bytes.size() - 1}, v.depth(), out),
            WireDecodeStatus::kTruncated);
  EXPECT_EQ(decode_view({}, v.depth(), out), WireDecodeStatus::kTruncated);
  // A root that claims a parent edge.
  {
    std::vector<std::uint8_t> d = bytes;
    WireNode root;
    ASSERT_TRUE(decode_wire_node(d.data(), root));
    root.parent_port = 0;
    encode_wire_node(root, d.data());
    EXPECT_EQ(decode_view(d, v.depth(), out), WireDecodeStatus::kBadStructure);
  }
  // Chopping whole nodes off the tail leaves children unclaimed or claimed
  // counts untiled: kBadStructure (never a crash or an over-read).
  for (std::size_t nodes = 1;
       nodes < bytes.size() / static_cast<std::size_t>(kWireNodeBytes);
       ++nodes) {
    const std::span<const std::uint8_t> prefix{
        bytes.data(), nodes * static_cast<std::size_t>(kWireNodeBytes)};
    EXPECT_NE(decode_view(prefix, v.depth(), out), WireDecodeStatus::kOk)
        << nodes;
  }
}

}  // namespace
}  // namespace locmm
