// E8 -- engine ablation: the four realisations of the same algorithm.
//   C  centralized shared-DP simulation (fast path)
//   L  per-agent local-view evaluation (definitional)
//   M  synchronous message passing with view gathering (faithful, §4.1)
//   S  synchronous message passing with scalar phases (message-efficient)
// All four produce identical outputs (tested); this bench shows what each
// costs, plus engine C's thread scaling.
//
// Expected shape: C << L < M/S in time; M's bytes grow exponentially in R
// (views), S replaces most of that with 8-byte scalars at +2 rounds.
#include <bit>
#include <cstdint>

#include "core/local_solver.hpp"
#include "core/view_solver.hpp"
#include "dist/gather.hpp"
#include "dist/streaming.hpp"

#include "bench_util.hpp"

using namespace locmm;

namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t v = 0; v < a.size(); ++v)
    if (std::bit_cast<std::uint64_t>(a[v]) !=
        std::bit_cast<std::uint64_t>(b[v]))
      return false;
  return true;
}

}  // namespace

int main() {
  {
    Table table("E8a: engine cost on the same instance (wheel dK=2, R=3)");
    table.columns({"layers", "agents", "C_ms", "L_ms", "M_ms", "S_ms",
                   "M_bytes", "S_bytes"});
    for (std::int32_t layers : {8, 16, 32}) {
      const MaxMinInstance inst = layered_instance(
          {.delta_k = 2, .layers = layers, .width = 1, .twist = 0});
      const SpecialFormInstance sf(inst);
      Timer tc;
      const SpecialRunResult c = solve_special_centralized(sf, 3);
      const double c_ms = tc.millis();
      Timer tl;
      const std::vector<double> l = solve_special_local_views(inst, 3);
      const double l_ms = tl.millis();
      Timer tm;
      const MessageRunResult m = solve_special_message_passing(inst, 3);
      const double m_ms = tm.millis();
      Timer ts;
      const MessageRunResult s = solve_special_streaming(inst, 3);
      const double s_ms = ts.millis();
      // Cross-engine agreement, bit for bit, is part of the experiment's
      // validity.
      LOCMM_CHECK(same_bits(c.x, l));
      LOCMM_CHECK(same_bits(c.x, m.x));
      LOCMM_CHECK(same_bits(c.x, s.x));
      table.row({Table::cell(layers), Table::cell(inst.num_agents()),
                 Table::cell(c_ms, 2), Table::cell(l_ms, 2),
                 Table::cell(m_ms, 2), Table::cell(s_ms, 2),
                 Table::cell(m.stats.bytes), Table::cell(s.stats.bytes)});
    }
    table.note("outputs verified bitwise identical across engines before "
               "timing is reported");
    table.print();
  }
  {
    Table table("E8b: engine C thread scaling (grid 48x48 via pipeline, R=4)");
    table.columns({"threads", "ms", "speedup"});
    const MaxMinInstance inst = grid_instance({.rows = 48, .cols = 48}, 7);
    double base_ms = 0.0;
    for (std::size_t threads : {1, 2, 4, 8}) {
      Timer timer;
      const LocalSolution sol =
          solve_local(inst, {.R = 4, .threads = threads});
      const double ms = timer.millis();
      LOCMM_CHECK(sol.omega > 0.0);
      if (threads == 1) base_ms = ms;
      table.row({Table::cell(threads), Table::cell(ms, 1),
                 Table::cell(base_ms / ms, 2)});
    }
    table.note("phase 1 (per-agent t) is embarrassingly parallel; phases 2-3 "
               "are linear sweeps");
    table.print();
  }
  {
    Table table("E8c: message cost vs R, engine M vs engine S (wheel, 16 "
                "layers)");
    table.columns({"R", "engine", "rounds", "messages", "bytes",
                   "max_msg_bytes"});
    const MaxMinInstance inst = layered_instance(
        {.delta_k = 2, .layers = 16, .width = 1, .twist = 0});
    for (std::int32_t R : {2, 3, 4}) {
      const MessageRunResult m = solve_special_message_passing(inst, R);
      table.row({Table::cell(R), Table::cell("M (gather)"),
                 Table::cell(m.stats.rounds), Table::cell(m.stats.messages),
                 Table::cell(m.stats.bytes),
                 Table::cell(m.stats.max_message_bytes)});
      const MessageRunResult s = solve_special_streaming(inst, R);
      table.row({Table::cell(R), Table::cell("S (stream)"),
                 Table::cell(s.stats.rounds), Table::cell(s.stats.messages),
                 Table::cell(s.stats.bytes),
                 Table::cell(s.stats.max_message_bytes)});
    }
    table.note("engine M ships radius-D(R) views; engine S gathers only "
               "radius 4r+3 for t, then floods 8-byte scalars (+2 rounds)");
    table.print();
  }
  {
    // The byte columns above are measured off the real codec (frames cross
    // actual process boundaries here, not an accounting formula); this
    // section prices the transports themselves.
    Table table("E8d: engine M across process boundaries (wheel 16 layers, "
                "R=3, 2 ranks)");
    table.columns({"transport", "ms", "bytes", "identical"});
    const MaxMinInstance inst = layered_instance(
        {.delta_k = 2, .layers = 16, .width = 1, .twist = 0});
    const MessageRunResult in_proc = solve_special_message_passing(inst, 3);
    struct Row {
      const char* name;
      TransportKind kind;
    };
    for (const Row row : {Row{"in-process", TransportKind::kInProcess},
                          Row{"shm-ring", TransportKind::kSharedMemory}}) {
      DistOptions dist;
      dist.transport = row.kind;
      dist.ranks = 2;
      Timer timer;
      const MessageRunResult m =
          solve_special_message_passing(inst, 3, {}, 1, nullptr, dist);
      const double ms = timer.millis();
      LOCMM_CHECK_MSG(same_bits(m.x, in_proc.x),
                      "cross-process engine M diverged on " << row.name);
      LOCMM_CHECK(m.stats.bytes == in_proc.stats.bytes);
      table.row({Table::cell(row.name), Table::cell(ms, 2),
                 Table::cell(m.stats.bytes), Table::cell("yes")});
    }
    table.note("2 forked ranks; outputs and byte counters verified equal to "
               "the in-process run before timing is reported");
    table.print();
  }
  return 0;
}
