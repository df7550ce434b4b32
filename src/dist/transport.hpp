// transport.hpp -- running the synchronous schedule across process
// boundaries.
//
// The in-process SyncNetwork delivers Message objects by move.  With the
// wire codec real (dist/wire.hpp), the schedule can genuinely distribute:
// run_multiprocess forks one rank per contiguous node-id shard, and every
// cross-rank delivery ships the *encoded frame* -- the exact bytes
// Message::byte_size accounts -- over one SPSC byte ring per ordered rank
// pair, mmap'd MAP_SHARED before the forks (lock-free head/tail atomics,
// bounded capacity, polling exchange).  Ranks are always forked children
// of one process, so the rings run on every input.
//
// Port-faithful delivery is preserved exactly: a record names its
// destination (node, port), receivers write the decoded message into the
// port-indexed inbox, and arrival order therefore cannot matter -- which is
// what makes a 4-rank run bitwise identical to the single-process engines
// (tests/multiproc_test.cpp pins M and S against engine C on every
// generator family).  Each rank counts the sends of its own nodes at real
// frame size, intra-rank or not, so the folded RunStats are independent of
// the partition and equal the in-process run's.
//
// The synchronous round structure doubles as the flow-control protocol:
// each rank ends its per-peer traffic for a round with a sentinel record,
// and drains peers while flushing its own backlog (write-some / read-some
// polling), so a bounded ring can never deadlock the exchange.  Ranks run
// the same fixed schedule as the in-process SyncNetwork::run (view_radius /
// streaming_rounds rounds), so no round needs a consensus on halting.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/message_passing.hpp"

namespace locmm {

enum class TransportKind : std::uint8_t {
  kInProcess,     // the SyncNetwork in-memory path (default)
  kSharedMemory,  // forked ranks over shared-memory byte rings
};

// The transport seam of the solve entry points: solve_special_message_passing
// and solve_special_streaming take this, and run_engine (dist/fault.hpp)
// dispatches on it.
struct DistOptions {
  TransportKind transport = TransportKind::kInProcess;
  // Process ranks to fork (>= 1); ignored in-process.  Nodes are sharded
  // into `ranks` contiguous id ranges.
  std::int32_t ranks = 1;
  // Per-direction shared-memory ring capacity.  4 MiB absorbs a full round
  // of engine-M traffic for the bench instances; the polling exchange stays
  // correct (just slower) when a round exceeds it.
  std::int64_t ring_bytes = 4 << 20;
};

// Forks dist.ranks processes, each owning a contiguous node-id shard of g,
// and drives exactly `schedule_rounds` rounds of the programs `make`
// builds.  Agent nodes [0, num_agents) must be AgentNodeProgram (their x()
// lands in the shared result region; the per-rank stats are folded in rank
// order).  Children run serially (threads cannot cross fork), execute the
// fixed schedule, and _exit; the parent reaps them in rank order and
// CHECK-fails if any rank died or failed to halt.  Fault injection is an
// in-process facility (the recovery replay needs the whole history in one
// address space), so the result never carries degradation flags.
MessageRunResult run_multiprocess(const CommGraph& g,
                                    const SyncNetwork::ProgramFactory& make,
                                    std::int32_t schedule_rounds,
                                    std::int32_t num_agents,
                                    const DistOptions& dist);

}  // namespace locmm
