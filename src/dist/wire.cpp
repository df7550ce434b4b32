// wire.cpp -- 13-byte node codec, message frames, whole-view round-trip,
// and the byte-level corruption primitive (see wire.hpp).
#include "dist/wire.hpp"

#include <bit>
#include <cstring>

#include "dist/fault.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"

namespace locmm {

namespace {

constexpr std::uint8_t kKindScalar = 1;
constexpr std::uint8_t kKindView = 2;

// Domain tag for frame checksums, distinct from every other hash stream in
// the library ("locmm-fr").
constexpr std::uint64_t kFrameChecksumSeed = 0x6c6f636d6d2d6672ull;

}  // namespace

const char* wire_decode_status_name(WireDecodeStatus s) {
  switch (s) {
    case WireDecodeStatus::kOk: return "ok";
    case WireDecodeStatus::kTruncated: return "truncated";
    case WireDecodeStatus::kTrailingBytes: return "trailing-bytes";
    case WireDecodeStatus::kBadKind: return "bad-kind";
    case WireDecodeStatus::kBadChecksum: return "bad-checksum";
    case WireDecodeStatus::kBadNode: return "bad-node";
    case WireDecodeStatus::kBadStructure: return "bad-structure";
  }
  return "unknown";
}

std::uint64_t frame_checksum(std::span<const std::uint8_t> content) {
  std::uint64_t h = mix64(kFrameChecksumSeed);
  h = hash_combine(h, static_cast<std::uint64_t>(content.size()));
  std::size_t i = 0;
  for (; i + 8 <= content.size(); i += 8) {
    h = hash_combine(h, load_le(content.data() + i, 8));
  }
  if (i < content.size()) {
    h = hash_combine(h, load_le(content.data() + i, content.size() - i));
  }
  return h;
}

// --- node codec -----------------------------------------------------------

void encode_wire_node(const WireNode& w, std::uint8_t* out) {
  const auto type = static_cast<std::uint32_t>(w.type);
  LOCMM_CHECK_MSG(type <= static_cast<std::uint32_t>(NodeType::kObjective),
                  "encode_wire_node: bad type " << type);
  LOCMM_CHECK_MSG(w.degree >= 1 &&
                      static_cast<std::uint32_t>(w.degree) <= kWireMaxDegree,
                  "encode_wire_node: degree " << w.degree
                                              << " outside the wire width");
  LOCMM_CHECK_MSG(w.parent_port >= -1 && w.parent_port < w.degree,
                  "encode_wire_node: parent_port " << w.parent_port
                                                   << " vs degree "
                                                   << w.degree);
  LOCMM_CHECK_MSG(w.num_children >= 0 && w.num_children <= w.degree,
                  "encode_wire_node: num_children " << w.num_children
                                                    << " vs degree "
                                                    << w.degree);
  std::int32_t objdeg = 0;
  if (w.type == NodeType::kAgent) {
    LOCMM_CHECK_MSG(
        w.constraint_degree >= 0 && w.constraint_degree <= w.degree,
        "encode_wire_node: constraint_degree " << w.constraint_degree
                                               << " vs degree " << w.degree);
    objdeg = w.degree - w.constraint_degree;
    LOCMM_CHECK_MSG(static_cast<std::uint32_t>(objdeg) <= kWireMaxObjDeg,
                    "encode_wire_node: objective degree " << objdeg
                                                          << " outside the "
                                                             "wire width");
  } else {
    LOCMM_CHECK_MSG(w.constraint_degree == 0,
                    "encode_wire_node: relay with constraint_degree "
                        << w.constraint_degree);
  }
  WireHeader h;
  h.type = type;
  h.degree = static_cast<std::uint32_t>(w.degree);
  h.pport1 = static_cast<std::uint32_t>(w.parent_port + 1);
  h.nchild = static_cast<std::uint32_t>(w.num_children);
  h.objdeg = static_cast<std::uint32_t>(objdeg);
  store_le(out, pack_wire_header(h), kWireHeaderBytes);
  store_le(out + kWireHeaderBytes, std::bit_cast<std::uint64_t>(w.parent_coeff),
           kWireCoeffBytes);
}

bool decode_wire_node(const std::uint8_t* in, WireNode& out) {
  const WireHeader h = unpack_wire_header(load_le(in, kWireHeaderBytes));
  if (h.type > static_cast<std::uint32_t>(NodeType::kObjective)) return false;
  if (h.degree < 1) return false;
  if (h.pport1 > h.degree) return false;
  if (h.nchild > h.degree) return false;
  const bool agent = h.type == static_cast<std::uint32_t>(NodeType::kAgent);
  if (agent) {
    if (h.objdeg > h.degree) return false;
  } else if (h.objdeg != 0) {
    // Canonical encodings carry the objective-port count only for agents; a
    // relay with a nonzero field has no encoder origin and would otherwise
    // alias a distinct checksummed byte stream onto an equal decoded value.
    return false;
  }
  out.type = static_cast<NodeType>(h.type);
  out.degree = static_cast<std::int32_t>(h.degree);
  out.constraint_degree =
      agent ? static_cast<std::int32_t>(h.degree - h.objdeg) : 0;
  out.parent_port = static_cast<std::int32_t>(h.pport1) - 1;
  out.num_children = static_cast<std::int32_t>(h.nchild);
  out.parent_coeff =
      std::bit_cast<double>(load_le(in + kWireHeaderBytes, kWireCoeffBytes));
  return true;
}

// --- message frames -------------------------------------------------------

void append_message_frame(const Message& m, std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  switch (m.kind) {
    case Message::Kind::kNone:
      return;
    case Message::Kind::kScalar: {
      out.resize(start + static_cast<std::size_t>(kScalarFrameBytes));
      std::uint8_t* f = out.data() + start;
      f[0] = kKindScalar;
      store_le(f + 1, std::bit_cast<std::uint64_t>(m.scalar), 8);
      store_le(f + 9, frame_checksum({f, 9}), 8);
      break;
    }
    case Message::Kind::kView: {
      const std::size_t n = m.view.size();
      const auto frame = static_cast<std::size_t>(
          view_frame_bytes(static_cast<std::int64_t>(n)));
      out.resize(start + frame);
      std::uint8_t* f = out.data() + start;
      f[0] = kKindView;
      store_le(f + 1, static_cast<std::uint64_t>(n), 4);
      std::uint8_t* p = f + 5;
      for (const WireNode& w : m.view) {
        encode_wire_node(w, p);
        p += kWireNodeBytes;
      }
      store_le(p, frame_checksum({f, frame - 8}), 8);
      break;
    }
  }
  LOCMM_CHECK_MSG(static_cast<std::int64_t>(out.size() - start) ==
                      m.byte_size(),
                  "frame size drifted from Message::byte_size");
}

std::vector<std::uint8_t> encode_message(const Message& m) {
  std::vector<std::uint8_t> out;
  append_message_frame(m, out);
  return out;
}

WireDecodeStatus decode_message_frame(std::span<const std::uint8_t> frame,
                                      Message& out) {
  out = Message{};
  if (frame.empty()) return WireDecodeStatus::kOk;  // silent port
  const std::uint8_t kind = frame[0];
  if (kind == kKindScalar) {
    if (frame.size() < static_cast<std::size_t>(kScalarFrameBytes))
      return WireDecodeStatus::kTruncated;
    if (frame.size() > static_cast<std::size_t>(kScalarFrameBytes))
      return WireDecodeStatus::kTrailingBytes;
    if (load_le(frame.data() + 9, 8) != frame_checksum(frame.subspan(0, 9)))
      return WireDecodeStatus::kBadChecksum;
    out.kind = Message::Kind::kScalar;
    out.scalar = std::bit_cast<double>(load_le(frame.data() + 1, 8));
    return WireDecodeStatus::kOk;
  }
  if (kind != kKindView) return WireDecodeStatus::kBadKind;
  if (frame.size() < static_cast<std::size_t>(kViewFrameOverheadBytes))
    return WireDecodeStatus::kTruncated;
  const std::uint64_t count = load_le(frame.data() + 1, 4);
  // Size arithmetic in 64 bits: a hostile count of 2^32-1 claims ~56 GB and
  // must fail the length check below without any allocation.
  const auto expected = static_cast<std::uint64_t>(
      view_frame_bytes(static_cast<std::int64_t>(count)));
  if (frame.size() < expected) return WireDecodeStatus::kTruncated;
  if (frame.size() > expected) return WireDecodeStatus::kTrailingBytes;
  if (load_le(frame.data() + frame.size() - 8, 8) !=
      frame_checksum(frame.subspan(0, frame.size() - 8)))
    return WireDecodeStatus::kBadChecksum;
  std::vector<WireNode> nodes(static_cast<std::size_t>(count));
  const std::uint8_t* p = frame.data() + 5;
  for (WireNode& w : nodes) {
    if (!decode_wire_node(p, w)) return WireDecodeStatus::kBadNode;
    p += kWireNodeBytes;
  }
  // Blob roots carry the port they were sent on as their parent port, so a
  // valid message blob never contains a parentless node -- decode_wire_node
  // accepts pport1 == 0 for the whole-view codec, the blob validator does
  // not (parent_port must be >= 0), and wire_view_well_formed enforces the
  // single-preorder-subtree shape on top.
  if (!wire_view_well_formed(nodes)) return WireDecodeStatus::kBadStructure;
  out.kind = Message::Kind::kView;
  out.view = std::move(nodes);
  return WireDecodeStatus::kOk;
}

// --- whole-view codec -----------------------------------------------------

std::vector<std::uint8_t> encode_view(const ViewTree& v) {
  LOCMM_CHECK_MSG(!v.truncated(),
                  "encode_view: budget-truncated trees are not representable "
                  "on the wire");
  std::vector<std::uint8_t> out(
      static_cast<std::size_t>(v.byte_size()));
  std::uint8_t* p = out.data();
  for (std::int32_t i = 0; i < v.size(); ++i) {
    const ViewNode& n = v.node(i);
    WireNode w;
    w.type = n.type;
    w.degree = n.degree;
    w.constraint_degree = n.constraint_degree;
    w.parent_port = n.parent_port;
    w.parent_coeff = n.parent_coeff;
    w.num_children = n.num_children;
    encode_wire_node(w, p);
    p += kWireNodeBytes;
  }
  LOCMM_CHECK_MSG(static_cast<std::int64_t>(out.size()) == v.byte_size(),
                  "encode_view size drifted from ViewTree::byte_size");
  return out;
}

// Friend-door into ViewTree for decode_view (the same arrangement
// ViewAssembler uses to splice message blobs).
class WireCodec {
 public:
  static WireDecodeStatus decode_into(std::span<const std::uint8_t> bytes,
                                      std::int32_t depth, ViewTree& out) {
    if (depth < 0) return WireDecodeStatus::kBadStructure;
    if (bytes.size() % static_cast<std::size_t>(kWireNodeBytes) != 0)
      return WireDecodeStatus::kTruncated;
    const auto n =
        static_cast<std::int32_t>(bytes.size() /
                                  static_cast<std::size_t>(kWireNodeBytes));
    if (n < 1) return WireDecodeStatus::kTruncated;

    std::vector<WireNode> raw(static_cast<std::size_t>(n));
    const std::uint8_t* p = bytes.data();
    for (WireNode& w : raw) {
      if (!decode_wire_node(p, w)) return WireDecodeStatus::kBadNode;
      p += kWireNodeBytes;
    }
    if (raw[0].parent_port != -1) return WireDecodeStatus::kBadStructure;

    out.nodes_.assign(static_cast<std::size_t>(n), ViewNode{});
    out.child_index_.clear();
    out.depth_ = depth;
    out.truncated_ = false;

    // BFS reconstruction: children of node i are the next num_children
    // unclaimed nodes, in storage order.  `next` is the running claim
    // cursor; a canonical payload tiles [1, n) exactly.
    std::int32_t next = 1;
    for (std::int32_t i = 0; i < n; ++i) {
      const WireNode& w = raw[static_cast<std::size_t>(i)];
      ViewNode& v = out.nodes_[static_cast<std::size_t>(i)];
      if (i > 0 && w.parent_port < 0) return WireDecodeStatus::kBadStructure;
      // BFS order puts every child after its parent, so a canonical payload
      // has node i already claimed (parent and depth stamped) by the time
      // the cursor reaches it; an unclaimed non-root node means the child
      // counts do not tile the array.
      if (i > 0 && v.parent < 0) return WireDecodeStatus::kBadStructure;
      v.type = w.type;
      v.parent_port = w.parent_port;
      v.parent_coeff = w.parent_coeff;
      v.origin = i;  // synthetic, like message-assembled views
      v.degree = w.degree;
      v.constraint_degree = w.constraint_degree;
      if (w.num_children > 0) {
        // Expanded: the exact complete-view child count, and room for it.
        const std::int32_t want = i == 0 ? w.degree : w.degree - 1;
        if (w.num_children != want) return WireDecodeStatus::kBadStructure;
        if (v.depth >= depth) return WireDecodeStatus::kBadStructure;
        if (next > n - w.num_children) return WireDecodeStatus::kBadStructure;
        v.first_child = static_cast<std::int32_t>(out.child_index_.size());
        v.num_children = w.num_children;
        for (std::int32_t c = 0; c < w.num_children; ++c) {
          ViewNode& child = out.nodes_[static_cast<std::size_t>(next)];
          child.parent = i;
          child.depth = v.depth + 1;
          out.child_index_.push_back(next);
          ++next;
        }
      } else {
        // Frontier leaf (or an expanded node with no non-parent ports --
        // indistinguishable on the wire; ViewAssembler stores both with
        // first_child = 0, which is the convention round-tripped here).
        const std::int32_t non_parent = w.degree - (i == 0 ? 0 : 1);
        if (v.depth < depth && non_parent > 0)
          return WireDecodeStatus::kBadStructure;
        v.first_child = 0;
        v.num_children = 0;
      }
    }
    if (next != n) return WireDecodeStatus::kBadStructure;

    // Synthetic representative map: every node represents itself (same as
    // ViewAssembler -- decoded trees have no global origins to share).
    out.rep_.assign(static_cast<std::size_t>(n), 0);
    out.rep_epoch_.assign(static_cast<std::size_t>(n), 1);
    out.rep_epoch_now_ = 1;
    for (std::int32_t i = 0; i < n; ++i)
      out.rep_[static_cast<std::size_t>(i)] = i;

    out.rebuild_neighbor_cache();
    return WireDecodeStatus::kOk;
  }
};

WireDecodeStatus decode_view(std::span<const std::uint8_t> bytes,
                             std::int32_t depth, ViewTree& out) {
  return WireCodec::decode_into(bytes, depth, out);
}

// --- corruption on real bytes ---------------------------------------------

void corrupt_frame(std::span<std::uint8_t> frame, std::uint64_t bits) {
  LOCMM_CHECK(!frame.empty());
  const std::uint64_t bit = bits % (8 * frame.size());
  frame[static_cast<std::size_t>(bit / 8)] ^=
      static_cast<std::uint8_t>(1u << (bit % 8));
}

std::uint64_t corrupt_frame_detectably(std::span<std::uint8_t> frame,
                                       std::uint64_t bits) {
  LOCMM_CHECK(!frame.empty());
  Message scratch;
  for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
    const std::uint64_t bit =
        mix64(bits + attempt) % (8 * frame.size());
    frame[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    if (decode_message_frame(frame, scratch) != WireDecodeStatus::kOk)
      return bit;
    // A digest collision hid the flip: revert and draw a different bit, so
    // injected corruption is detectable by construction.
    frame[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
  }
  LOCMM_CHECK_MSG(false,
                  "corrupt_frame_detectably: 64 independent single-bit flips "
                  "all evaded the decoder -- checksum layer is broken");
  return 0;
}

}  // namespace locmm
