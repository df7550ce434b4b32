// transport.cpp -- forked ranks over shared-memory rings (see transport.hpp
// for the protocol and the conformance argument).
#include "dist/transport.hpp"

#include <sched.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "dist/wire.hpp"
#include "support/check.hpp"
#include "support/wire_layout.hpp"

namespace locmm {

namespace {

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shared-memory rings need lock-free 64-bit atomics");
static_assert(std::atomic<std::int32_t>::is_always_lock_free);

// A cross-rank delivery record: [dst node: u64][dst port: u32]
// [frame length: u32][frame bytes].  The sentinel (kSentinelDst, port 0,
// length 0) ends one rank's traffic towards one peer for the round -- the
// round barrier of the exchange.
constexpr std::uint64_t kSentinelDst = ~std::uint64_t{0};
constexpr std::size_t kRecordHeaderBytes = 16;

// Rank statuses in the shared region (set by children, read by peers and
// the parent; 2 lets live ranks bail out instead of polling a dead peer's
// silent ring forever).
constexpr std::int32_t kRankRunning = 0;
constexpr std::int32_t kRankOk = 1;
constexpr std::int32_t kRankFailed = 2;

// ---------------------------------------------------------------------------
// Shared memory plumbing.
// ---------------------------------------------------------------------------

class SharedMapping {
 public:
  explicit SharedMapping(std::size_t bytes) : bytes_(bytes) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    LOCMM_CHECK_MSG(p != MAP_FAILED,
                    "mmap of " << bytes << " shared bytes failed (errno "
                               << errno << ")");
    // MAP_ANONYMOUS pages arrive zero-filled (mmap(2)).
    base_ = static_cast<std::uint8_t*>(p);
  }
  ~SharedMapping() {
    if (base_ != nullptr) ::munmap(base_, bytes_);
  }
  SharedMapping(const SharedMapping&) = delete;
  SharedMapping& operator=(const SharedMapping&) = delete;

  std::uint8_t* data() const { return base_; }

 private:
  std::uint8_t* base_ = nullptr;
  std::size_t bytes_ = 0;
};

// One single-producer single-consumer byte ring in shared memory: head is
// the producer's write cursor, tail the consumer's read cursor, both
// monotonically increasing (positions mod capacity).  Acquire/release pairs
// make the data bytes visible before the cursor that publishes them.
struct RingHeader {
  alignas(64) std::atomic<std::uint64_t> head;
  alignas(64) std::atomic<std::uint64_t> tail;
};

struct RingView {
  RingHeader* hdr = nullptr;
  std::uint8_t* data = nullptr;
  std::uint64_t capacity = 0;

  std::size_t write_some(const std::uint8_t* src, std::size_t n) {
    const std::uint64_t head = hdr->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = hdr->tail.load(std::memory_order_acquire);
    const std::uint64_t free = capacity - (head - tail);
    const auto w = static_cast<std::size_t>(
        std::min<std::uint64_t>(free, static_cast<std::uint64_t>(n)));
    if (w == 0) return 0;
    const auto pos = static_cast<std::size_t>(head % capacity);
    const std::size_t first =
        std::min(w, static_cast<std::size_t>(capacity) - pos);
    std::memcpy(data + pos, src, first);
    if (w > first) std::memcpy(data, src + first, w - first);
    hdr->head.store(head + w, std::memory_order_release);
    return w;
  }

  std::size_t read_some(std::uint8_t* dst, std::size_t n) {
    const std::uint64_t tail = hdr->tail.load(std::memory_order_relaxed);
    const std::uint64_t head = hdr->head.load(std::memory_order_acquire);
    const std::uint64_t avail = head - tail;
    const auto r = static_cast<std::size_t>(
        std::min<std::uint64_t>(avail, static_cast<std::uint64_t>(n)));
    if (r == 0) return 0;
    const auto pos = static_cast<std::size_t>(tail % capacity);
    const std::size_t first =
        std::min(r, static_cast<std::size_t>(capacity) - pos);
    std::memcpy(dst, data + pos, first);
    if (r > first) std::memcpy(dst + first, data, r - first);
    hdr->tail.store(tail + r, std::memory_order_release);
    return r;
  }
};

// A rank's duplex link to one peer: one ring each way.
struct PeerLink {
  RingView out;
  RingView in;
};

// ---------------------------------------------------------------------------
// The per-rank schedule (runs inside a forked child).
// ---------------------------------------------------------------------------

struct RankArgs {
  const CommGraph* g = nullptr;
  const SyncNetwork::ProgramFactory* make = nullptr;
  std::int32_t schedule_rounds = 0;
  std::int32_t num_agents = 0;
  std::int32_t rank = 0;
  std::int32_t ranks = 0;
  const std::vector<NodeId>* bounds = nullptr;  // ranks + 1 shard boundaries
  std::vector<PeerLink>* links = nullptr;       // indexed by peer rank
  std::atomic<std::int32_t>* status = nullptr;  // per rank, shared
  double* shared_x = nullptr;                   // per agent, shared
  RunStats* shared_stats = nullptr;             // per rank, shared
};

// Incremental parse state for one peer's incoming byte stream.
struct InStream {
  std::vector<std::uint8_t> buf;
  std::size_t pos = 0;          // parse cursor into buf
  bool round_done = false;      // sentinel for the current round consumed

  void compact() {
    if (pos == 0) return;
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(pos));
    pos = 0;
  }
};

void run_rank(const RankArgs& a) {
  const CommGraph& g = *a.g;
  const std::vector<NodeId>& bounds = *a.bounds;
  const NodeId lo = bounds[static_cast<std::size_t>(a.rank)];
  const NodeId hi = bounds[static_cast<std::size_t>(a.rank) + 1];
  const auto owned = static_cast<std::size_t>(hi - lo);
  const auto P = static_cast<std::size_t>(a.ranks);

  const auto rank_of = [&](NodeId u) {
    // Shards are contiguous and only P of them: a linear scan beats a
    // binary search at these widths and runs O(1) amortised for the
    // neighbour-locality the generators produce.
    for (std::size_t r = 0;; ++r)
      if (u < bounds[r + 1]) return r;
  };

  std::vector<std::unique_ptr<NodeProgram>> programs(owned);
  for (std::size_t i = 0; i < owned; ++i) {
    programs[i] = (*a.make)(lo + static_cast<NodeId>(i));
    programs[i]->init(local_input(g, lo + static_cast<NodeId>(i)));
  }

  std::vector<std::vector<Message>> inbox(owned);
  for (std::size_t i = 0; i < owned; ++i)
    inbox[i].resize(
        static_cast<std::size_t>(g.degree(lo + static_cast<NodeId>(i))));

  std::vector<std::vector<std::uint8_t>> out_bufs(P);
  std::vector<std::size_t> out_pos(P, 0);
  std::vector<InStream> in_streams(P);
  std::vector<std::uint8_t> chunk(1 << 16);

  const auto append_record = [](std::vector<std::uint8_t>& buf, NodeId dst,
                                std::int32_t port, const Message& m) {
    const std::size_t at = buf.size();
    buf.resize(at + kRecordHeaderBytes);
    store_le(buf.data() + at, static_cast<std::uint64_t>(dst), 8);
    store_le(buf.data() + at + 8, static_cast<std::uint64_t>(port), 4);
    append_message_frame(m, buf);
    store_le(buf.data() + at + 12,
             static_cast<std::uint64_t>(buf.size() - at - kRecordHeaderBytes),
             4);
  };

  RunStats st;
  for (std::int32_t round = 1; round <= a.schedule_rounds; ++round) {
    st.rounds = round;
    for (auto& ib : inbox)
      for (Message& m : ib) m.kind = Message::Kind::kNone;
    for (std::size_t p = 0; p < P; ++p) {
      out_bufs[p].clear();
      out_pos[p] = 0;
      in_streams[p].round_done = p == static_cast<std::size_t>(a.rank);
    }

    // Send phase: owned nodes in ascending id order, so the folded stats
    // match the single-process scheduler's node-order accounting exactly.
    for (std::size_t i = 0; i < owned; ++i) {
      if (programs[i]->halted()) continue;
      const NodeId u = lo + static_cast<NodeId>(i);
      std::vector<Message> out = programs[i]->send(round);
      LOCMM_CHECK_MSG(
          out.empty() ||
              static_cast<std::int32_t>(out.size()) == g.degree(u),
          "send() must return one message per port or nothing: got "
              << out.size() << " for degree " << g.degree(u));
      const auto neigh = g.neighbors(u);
      for (std::size_t p = 0; p < out.size(); ++p) {
        Message& m = out[p];
        if (m.kind == Message::Kind::kNone) continue;
        const std::int64_t sz = m.byte_size();
        ++st.messages;
        st.bytes += sz;
        st.max_message_bytes = std::max(st.max_message_bytes, sz);
        const NodeId to = neigh[p].to;
        const std::int32_t q = g.back_port(u, static_cast<std::int32_t>(p));
        const std::size_t tr = rank_of(to);
        if (tr == static_cast<std::size_t>(a.rank)) {
          inbox[static_cast<std::size_t>(to - lo)]
               [static_cast<std::size_t>(q)] = std::move(m);
        } else {
          append_record(out_bufs[tr], to, q, m);
        }
      }
    }
    for (std::size_t p = 0; p < P; ++p)
      if (p != static_cast<std::size_t>(a.rank)) {
        const std::size_t at = out_bufs[p].size();
        out_bufs[p].resize(at + kRecordHeaderBytes);
        store_le(out_bufs[p].data() + at, kSentinelDst, 8);
        store_le(out_bufs[p].data() + at + 8, 0, 4);
        store_le(out_bufs[p].data() + at + 12, 0, 4);
      }

    // Exchange: flush own backlog and drain peers until every peer's
    // sentinel for this round arrived and everything queued went out.
    // Write-some / read-some in the same loop is the no-deadlock argument:
    // a full ring always has a polling consumer.
    std::uint64_t idle_spins = 0;
    for (;;) {
      bool all_done = true;
      bool progress = false;
      for (std::size_t p = 0; p < P; ++p) {
        if (p == static_cast<std::size_t>(a.rank)) continue;
        PeerLink& link = (*a.links)[p];
        if (out_pos[p] < out_bufs[p].size()) {
          const std::size_t w = link.out.write_some(
              out_bufs[p].data() + out_pos[p], out_bufs[p].size() - out_pos[p]);
          out_pos[p] += w;
          progress |= w > 0;
          if (out_pos[p] < out_bufs[p].size()) all_done = false;
        }
        InStream& in = in_streams[p];
        if (!in.round_done) {
          const std::size_t r = link.in.read_some(chunk.data(), chunk.size());
          if (r > 0) {
            in.buf.insert(in.buf.end(), chunk.data(), chunk.data() + r);
            progress = true;
          }
          // Greedy parse of complete records, stopping at this round's
          // sentinel (later bytes belong to the peer's next round).
          while (!in.round_done &&
                 in.buf.size() - in.pos >= kRecordHeaderBytes) {
            const std::uint8_t* h = in.buf.data() + in.pos;
            const std::uint64_t dst = load_le(h, 8);
            const auto port = static_cast<std::int32_t>(load_le(h + 8, 4));
            const std::size_t len = static_cast<std::size_t>(load_le(h + 12,
                                                                     4));
            if (dst == kSentinelDst) {
              in.pos += kRecordHeaderBytes;
              in.round_done = true;
              break;
            }
            if (in.buf.size() - in.pos < kRecordHeaderBytes + len) break;
            const auto node = static_cast<NodeId>(dst);
            LOCMM_CHECK_MSG(node >= lo && node < hi,
                            "cross-rank record addressed to node "
                                << node << " outside this shard");
            const auto li = static_cast<std::size_t>(node - lo);
            LOCMM_CHECK(port >= 0 &&
                        port < static_cast<std::int32_t>(inbox[li].size()));
            Message& slot = inbox[li][static_cast<std::size_t>(port)];
            const WireDecodeStatus ds = decode_message_frame(
                {in.buf.data() + in.pos + kRecordHeaderBytes, len}, slot);
            LOCMM_CHECK_MSG(ds == WireDecodeStatus::kOk,
                            "cross-rank frame failed to decode ("
                                << wire_decode_status_name(ds) << ")");
            in.pos += kRecordHeaderBytes + len;
          }
          if (in.round_done) in.compact();
          if (!in.round_done) all_done = false;
        }
      }
      if (all_done) break;
      if (!progress) {
        if ((++idle_spins & 0x3ff) == 0) {
          for (std::size_t p = 0; p < P; ++p)
            LOCMM_CHECK_MSG(
                a.status[p].load(std::memory_order_acquire) != kRankFailed,
                "peer rank " << p << " failed; aborting the schedule");
        }
        ::sched_yield();
      }
    }

    // Receive phase.
    for (std::size_t i = 0; i < owned; ++i) {
      if (programs[i]->halted()) continue;
      programs[i]->receive(round, std::span<const Message>(inbox[i]));
    }
  }

  for (std::size_t i = 0; i < owned; ++i)
    LOCMM_CHECK_MSG(programs[i]->halted(),
                    "rank " << a.rank << ": node " << lo + static_cast<NodeId>(i)
                            << " did not halt within the "
                            << a.schedule_rounds << "-round schedule");

  for (NodeId u = std::max<NodeId>(lo, 0);
       u < std::min<NodeId>(hi, a.num_agents); ++u) {
    const auto* prog = dynamic_cast<const AgentNodeProgram*>(
        programs[static_cast<std::size_t>(u - lo)].get());
    LOCMM_CHECK_MSG(prog != nullptr,
                    "agent node " << u << " program is not an "
                                     "AgentNodeProgram");
    a.shared_x[static_cast<std::size_t>(u)] = prog->x();
  }
  st.fresh_messages = st.messages;
  st.fresh_bytes = st.bytes;
  a.shared_stats[static_cast<std::size_t>(a.rank)] = st;
}

}  // namespace

MessageRunResult run_multiprocess(const CommGraph& g,
                                  const SyncNetwork::ProgramFactory& make,
                                  std::int32_t schedule_rounds,
                                  std::int32_t num_agents,
                                  const DistOptions& dist) {
  LOCMM_CHECK_MSG(dist.transport != TransportKind::kInProcess,
                  "run_multiprocess needs a cross-process transport");
  const NodeId n = g.num_nodes();
  LOCMM_CHECK_MSG(dist.ranks >= 1 && static_cast<NodeId>(dist.ranks) <= n,
                  "ranks must be in [1, num_nodes]: " << dist.ranks << " vs "
                                                      << n);
  LOCMM_CHECK(schedule_rounds >= 1);
  LOCMM_CHECK(num_agents >= 0 && static_cast<NodeId>(num_agents) <= n);
  LOCMM_CHECK_MSG(dist.ring_bytes >= 1024,
                  "ring_bytes too small: " << dist.ring_bytes);
  const auto P = static_cast<std::size_t>(dist.ranks);

  std::vector<NodeId> bounds(P + 1);
  for (std::size_t r = 0; r <= P; ++r)
    bounds[r] = static_cast<NodeId>(
        (static_cast<std::int64_t>(n) * static_cast<std::int64_t>(r)) /
        static_cast<std::int64_t>(P));

  // Shared result region: per-agent outputs, per-rank stats and statuses.
  const std::size_t x_bytes = static_cast<std::size_t>(num_agents) * 8;
  const std::size_t stats_off = (x_bytes + 63) & ~std::size_t{63};
  const std::size_t status_off =
      (stats_off + P * sizeof(RunStats) + 63) & ~std::size_t{63};
  SharedMapping result(status_off + P * sizeof(std::atomic<std::int32_t>));
  double* shared_x = reinterpret_cast<double*>(result.data());
  RunStats* shared_stats =
      reinterpret_cast<RunStats*>(result.data() + stats_off);
  auto* status =
      reinterpret_cast<std::atomic<std::int32_t>*>(result.data() + status_off);
  for (std::size_t r = 0; r < P; ++r) {
    new (&shared_stats[r]) RunStats{};
    new (&status[r]) std::atomic<std::int32_t>(kRankRunning);
  }

  // Ring setup, pre-fork so every rank inherits the mapping.
  std::unique_ptr<SharedMapping> rings;
  const std::size_t pairs = P * (P - 1);
  const std::size_t ring_cap = static_cast<std::size_t>(dist.ring_bytes);
  const std::size_t ring_stride =
      (sizeof(RingHeader) + ring_cap + 63) & ~std::size_t{63};
  const auto ring_at = [&](std::size_t from, std::size_t to) {
    // Ordered pairs, diagonal skipped.
    const std::size_t id = from * (P - 1) + (to < from ? to : to - 1);
    RingView v;
    v.hdr = reinterpret_cast<RingHeader*>(rings->data() + id * ring_stride);
    v.data = rings->data() + id * ring_stride + sizeof(RingHeader);
    v.capacity = ring_cap;
    return v;
  };
  if (pairs > 0) {
    rings = std::make_unique<SharedMapping>(pairs * ring_stride);
    for (std::size_t a = 0; a < P; ++a)
      for (std::size_t b = 0; b < P; ++b) {
        if (a == b) continue;
        RingView v = ring_at(a, b);
        new (&v.hdr->head) std::atomic<std::uint64_t>(0);
        new (&v.hdr->tail) std::atomic<std::uint64_t>(0);
      }
  }

  std::vector<pid_t> pids(P, -1);
  for (std::size_t r = 0; r < P; ++r) {
    const pid_t pid = ::fork();
    LOCMM_CHECK_MSG(pid >= 0, "fork failed (errno " << errno << ")");
    if (pid == 0) {
      // Child: build the peer links, run the schedule, report through the
      // shared region, _exit (never unwind back into the parent's stack or
      // run its atexit handlers).
      std::vector<PeerLink> links(P);
      for (std::size_t p = 0; p < P; ++p) {
        if (p == r) continue;
        links[p].out = ring_at(r, p);
        links[p].in = ring_at(p, r);
      }
      RankArgs args;
      args.g = &g;
      args.make = &make;
      args.schedule_rounds = schedule_rounds;
      args.num_agents = num_agents;
      args.rank = static_cast<std::int32_t>(r);
      args.ranks = dist.ranks;
      args.bounds = &bounds;
      args.links = &links;
      args.status = status;
      args.shared_x = shared_x;
      args.shared_stats = shared_stats;
      int code = 0;
      try {
        run_rank(args);
        status[r].store(kRankOk, std::memory_order_release);
      } catch (const std::exception& e) {
        status[r].store(kRankFailed, std::memory_order_release);
        // Visible in the parent's CHECK message path via stderr.
        ::fprintf(stderr, "locmm rank %zu failed: %s\n", r, e.what());
        code = 1;
      }
      ::_exit(code);
    }
    pids[r] = pid;
  }

  // Parent: reap in rank order.
  bool ok = true;
  for (std::size_t r = 0; r < P; ++r) {
    int wstatus = 0;
    const pid_t got = ::waitpid(pids[r], &wstatus, 0);
    ok = ok && got == pids[r] && WIFEXITED(wstatus) &&
         WEXITSTATUS(wstatus) == 0 &&
         status[r].load(std::memory_order_acquire) == kRankOk;
  }
  LOCMM_CHECK_MSG(ok, "a multiprocess rank failed (see stderr)");

  MessageRunResult res;
  res.x.assign(shared_x, shared_x + num_agents);
  res.stats.rounds = schedule_rounds;
  for (std::size_t r = 0; r < P; ++r) {
    const RunStats& st = shared_stats[r];
    res.stats.messages += st.messages;
    res.stats.bytes += st.bytes;
    res.stats.max_message_bytes =
        std::max(res.stats.max_message_bytes, st.max_message_bytes);
  }
  res.stats.fresh_messages = res.stats.messages;
  res.stats.fresh_bytes = res.stats.bytes;
  return res;
}

}  // namespace locmm
