// wire.hpp -- the real wire codec for the distributed engines.
//
// Until PR 10 the wire format existed only as accounting: SyncNetwork
// shipped Message objects by pointer and byte_size() multiplied node counts
// by 13.  This header makes the encoding real.  Everything a port can carry
// in one round serializes to one *frame* (support/wire_layout.hpp has the
// byte diagrams):
//
//   scalar frame   [kind=1][payload: 8, raw IEEE-754 LE][checksum: 8]
//   view frame     [kind=2][count: u32 LE][count x 13-byte nodes][checksum: 8]
//   silent port    zero bytes on the wire (Kind::kNone is never encoded)
//
// The checksum is frame_checksum() over every byte that precedes it, so any
// single-bit corruption -- header, count, payload, or the checksum field
// itself -- lands in covered content.  Coefficients travel as raw bit
// patterns, and the checksum folds those bit patterns: distinct NaN
// encodings and the two zeros stay distinct through encode, decode and
// checksum (bitwise, not arithmetic, equality).
//
// decode_message_frame is the delivery-boundary validator: it rejects
// truncated frames, trailing garbage, unknown kinds, checksum mismatches,
// field overflows, non-canonical headers (a relay with a nonzero
// objective-degree field has no valid encoder origin), and blobs that are
// not exactly one preorder subtree (wire_view_well_formed, dist/fault.hpp).
// A hostile sender that re-stamps a valid checksum over garbage is still
// caught by the structural layers -- tests/wire_test.cpp carries the corpus.
//
// encode_view/decode_view round-trip a whole ViewTree through the identical
// per-node layout with no frame envelope: encode_view(v).size() ==
// v.byte_size() exactly, which is what turns ViewTree::byte_size from a
// hand-maintained formula into a quote of the encoder (round-trip tested
// per generator family).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dist/message_passing.hpp"
#include "graph/view_tree.hpp"
#include "support/wire_layout.hpp"

namespace locmm {

// Why a decode rejected its input (kOk otherwise).  The distinction matters
// to the fault layer: checksum rejections are what random corruption hits,
// structural rejections are what a checksum-fixing adversary hits.
enum class WireDecodeStatus : std::uint8_t {
  kOk,
  kTruncated,      // frame shorter than its own layout promises
  kTrailingBytes,  // frame longer than its own layout promises
  kBadKind,        // unknown kind byte
  kBadChecksum,    // stored checksum != checksum of the received content
  kBadNode,        // a 13-byte node fails field validation
  kBadStructure,   // nodes decode but are not one well-formed preorder blob
};

const char* wire_decode_status_name(WireDecodeStatus s);

// Checksum over the pre-checksum bytes of a frame (8-byte LE words through
// hash_combine, length-prefixed, zero-padded tail).
std::uint64_t frame_checksum(std::span<const std::uint8_t> content);

// --- node codec -----------------------------------------------------------

// Serializes one WireNode into exactly kWireNodeBytes bytes.  CHECK-fails
// when a field exceeds its wire width (the generator families sit two
// orders of magnitude below the ceilings; overflow means a corrupted or
// adversarial in-memory node, not a legitimate instance).
void encode_wire_node(const WireNode& w, std::uint8_t* out);

// Deserializes kWireNodeBytes bytes; false when any field is out of range
// (bad type, zero degree, parent port or child count past the degree) or
// the header is non-canonical (nonzero objective-degree field on a relay).
bool decode_wire_node(const std::uint8_t* in, WireNode& out);

// --- message frames -------------------------------------------------------

// Appends the frame for `m` to `out`; appends nothing for Kind::kNone.  The
// number of bytes appended is exactly m.byte_size() (CHECKed), which is how
// the RunStats byte counters stay quotes of the real encoder.
void append_message_frame(const Message& m, std::vector<std::uint8_t>& out);

std::vector<std::uint8_t> encode_message(const Message& m);

// Parses one frame.  A zero-length span decodes to Kind::kNone.  On any
// non-kOk status `out` is left as kNone; the caller must treat the frame as
// lost (the fault layer counts it corrupted and retransmits).
WireDecodeStatus decode_message_frame(std::span<const std::uint8_t> frame,
                                      Message& out);

// --- whole-view codec -----------------------------------------------------

// Serializes the tree in BFS storage order, 13 bytes per node, no envelope:
// the result size is exactly v.byte_size().  CHECK-fails on truncated trees
// (the truncation frontier is not representable on the wire; engines never
// ship truncated views).
std::vector<std::uint8_t> encode_view(const ViewTree& v);

// Rebuilds the BFS tree from encode_view output.  `depth` is the view
// radius the bytes claim (it is not part of the payload; transports carry
// it in their schedule, exactly as the gather protocol derives it from the
// round number).  Decoded trees carry synthetic origins (each node its own
// origin), like message-assembled views.  Rejects payloads that are not a
// canonical BFS layout: sizes not a multiple of 13, non-root nodes claiming
// no parent, child counts that do not tile the node array exactly.
WireDecodeStatus decode_view(std::span<const std::uint8_t> bytes,
                             std::int32_t depth, ViewTree& out);

// --- corruption on real bytes (dist/fault.hpp's injector) -----------------

// Flips bit (bits % (8 * frame.size())) in place.
void corrupt_frame(std::span<std::uint8_t> frame, std::uint64_t bits);

// Flips one pseudo-randomly chosen bit (seeded by `bits`) such that
// decode_message_frame rejects the result -- every frame bit is checksummed,
// so only a 64-bit digest collision can hide a flip; on that (astronomically
// rare, but possible) collision the flip is reverted and a different bit is
// drawn, CHECK-failing after a bounded number of attempts rather than ever
// letting injected corruption travel undetected.  Returns the flipped bit.
std::uint64_t corrupt_frame_detectably(std::span<std::uint8_t> frame,
                                       std::uint64_t bits);

}  // namespace locmm
