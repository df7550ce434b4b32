#include "dist/streaming.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "core/view_solver.hpp"
#include "dist/fault.hpp"
#include "dist/gather.hpp"

namespace locmm {

std::int32_t streaming_rounds(std::int32_t R) {
  LOCMM_CHECK(R >= 2);
  const std::int32_t r = R - 2;
  return 12 * r + 7;  // (4r+3) gather + (4r+2) smoothing + (4r+2) g-phases
}

namespace {

// One half-exchange of the scalar phases.  Each exchange is two rounds:
// agents send (odd offset), the relevant relay side replies (even offset).
struct Step {
  enum class Kind { kSmooth, kViaObjective, kViaConstraint };
  Kind kind = Kind::kSmooth;
  std::int32_t d = 0;        // g-recursion depth the exchange serves
  bool agents_send = false;  // else: the relay side replies this round
};

class StreamingProgram final : public AgentNodeProgram {
 public:
  StreamingProgram(std::int32_t r, const TSearchOptions& opt)
      : r_(r),
        opt_(opt),
        gather_rounds_(4 * r + 3),
        total_rounds_(12 * r + 7) {
    LOCMM_CHECK(r >= 0);
  }

  void init(const LocalInput& input) override {
    in_ = input;
    core_.init(input);
    if (in_.type != NodeType::kAgent)  // relay-only scratch
      vals_.assign(static_cast<std::size_t>(in_.degree), 0.0);
    if (in_.type == NodeType::kAgent) {
      LOCMM_CHECK_MSG(in_.degree - in_.constraint_degree == 1,
                      "|Kv| != 1: not in special form");
      LOCMM_CHECK_MSG(in_.constraint_degree >= 1,
                      "|Iv| < 1: not in special form");
      g_plus_.assign(static_cast<std::size_t>(r_) + 1, 0.0);
      g_minus_.assign(static_cast<std::size_t>(r_) + 1, 0.0);
      // (12): g+_{v,0} = min_{i in Iv} 1/a_iv, local knowledge.
      double cap = std::numeric_limits<double>::infinity();
      for (std::int32_t p = 0; p < in_.constraint_degree; ++p)
        cap = std::min(cap, 1.0 / in_.coeffs[static_cast<std::size_t>(p)]);
      g_plus_[0] = cap;
    }
  }

  std::vector<Message> send(std::int32_t round) override {
    if (round <= gather_rounds_) return core_.send(round);
    const Step st = classify(round);
    if (in_.type == NodeType::kAgent) {
      if (!st.agents_send) return {};
      std::vector<Message> out(static_cast<std::size_t>(in_.degree));
      switch (st.kind) {
        case Step::Kind::kSmooth:
          // Flood the running min through every incident relay.
          for (auto& m : out) m = Message::make_scalar(s_);
          break;
        case Step::Kind::kViaObjective:
          // g+_{v,d} towards the (unique) objective for the sibling sum.
          out[static_cast<std::size_t>(in_.constraint_degree)] =
              Message::make_scalar(
                  g_plus_[static_cast<std::size_t>(st.d)]);
          break;
        case Step::Kind::kViaConstraint:
          // g-_{v,d-1} towards every incident constraint for (14).
          for (std::int32_t p = 0; p < in_.constraint_degree; ++p)
            out[static_cast<std::size_t>(p)] = Message::make_scalar(
                g_minus_[static_cast<std::size_t>(st.d) - 1]);
          break;
      }
      return out;
    }
    // Relay side.
    if (st.agents_send || !relevant_relay(st)) return {};
    std::vector<Message> out(static_cast<std::size_t>(in_.degree));
    switch (st.kind) {
      case Step::Kind::kSmooth: {
        double m = vals_[0];
        for (std::int32_t q = 1; q < in_.degree; ++q)
          m = std::min(m, vals_[static_cast<std::size_t>(q)]);
        for (auto& msg : out) msg = Message::make_scalar(m);
        break;
      }
      case Step::Kind::kViaObjective:
        // Sibling sum for port p: every other port's g+, in port order --
        // the same reduction order sf.siblings gives engine C.
        for (std::int32_t p = 0; p < in_.degree; ++p) {
          double sum = 0.0;
          for (std::int32_t q = 0; q < in_.degree; ++q)
            if (q != p) sum += vals_[static_cast<std::size_t>(q)];
          out[static_cast<std::size_t>(p)] = Message::make_scalar(sum);
        }
        break;
      case Step::Kind::kViaConstraint:
        // The partner product a_{i,n(v,i)} g-_{n(v,i),d-1} of (14), formed
        // where both factors are known.
        LOCMM_CHECK_MSG(in_.degree == 2, "|Vi| != 2: not in special form");
        out[0] = Message::make_scalar(in_.coeffs[1] * vals_[1]);
        out[1] = Message::make_scalar(in_.coeffs[0] * vals_[0]);
        break;
    }
    return out;
  }

  void receive(std::int32_t round, std::span<const Message> inbox) override {
    if (round < gather_rounds_) {
      core_.receive(round, inbox);
      return;
    }
    if (round == gather_rounds_) {
      core_.receive(round, inbox);
      if (in_.type == NodeType::kAgent) {
        // Phase 1 ends: the radius-(4r+3) view is complete, exactly deep
        // enough for the alternating tree A_v of §5.1.
        ViewTree view;
        core_.assemble(gather_rounds_, view);
        t_ = t_root_from_view(view, r_, opt_);
        s_ = t_;
      }
      // Nothing reads the gather state again: the remaining 8r+4 rounds are
      // pure scalar exchanges, so drop the blobs (and the agents' spliced
      // view, which `view` above already scoped away) here rather than
      // carrying gather-phase-sized memory through phases 2-3.
      core_.release();
      return;
    }

    const Step st = classify(round);
    // The scalar-kind CHECKs below are internal invariants, not a fault
    // boundary: under a FaultPlan (dist/fault.hpp), SyncNetwork::run
    // validates every delivery with the frame decoder, retransmits rejected
    // messages, and freezes a node before its receive whenever an inbound
    // slot stayed unserved -- so a wrong kind here means a broken engine
    // schedule, never a network fault, and aborting is right.
    if (st.agents_send) {
      // The relay side banks the agents' scalars for next round's reply.
      if (in_.type != NodeType::kAgent && relevant_relay(st)) {
        for (std::int32_t q = 0; q < in_.degree; ++q) {
          const Message& m = inbox[static_cast<std::size_t>(q)];
          LOCMM_CHECK(m.kind == Message::Kind::kScalar);
          vals_[static_cast<std::size_t>(q)] = m.scalar;
        }
      }
    } else if (in_.type == NodeType::kAgent) {
      switch (st.kind) {
        case Step::Kind::kSmooth:
          // Closed-neighbourhood min: every relay returned the min over its
          // members (self included), one agent-adjacency hop per exchange.
          for (std::int32_t q = 0; q < in_.degree; ++q) {
            const Message& m = inbox[static_cast<std::size_t>(q)];
            LOCMM_CHECK(m.kind == Message::Kind::kScalar);
            s_ = std::min(s_, m.scalar);
          }
          break;
        case Step::Kind::kViaObjective: {
          const Message& m =
              inbox[static_cast<std::size_t>(in_.constraint_degree)];
          LOCMM_CHECK(m.kind == Message::Kind::kScalar);
          g_minus_[static_cast<std::size_t>(st.d)] =
              std::max(0.0, s_ - m.scalar);  // (13)
          break;
        }
        case Step::Kind::kViaConstraint: {
          double val = std::numeric_limits<double>::infinity();
          for (std::int32_t p = 0; p < in_.constraint_degree; ++p) {
            const Message& m = inbox[static_cast<std::size_t>(p)];
            LOCMM_CHECK(m.kind == Message::Kind::kScalar);
            val = std::min(
                val, (1.0 - m.scalar) / in_.coeffs[static_cast<std::size_t>(p)]);
          }
          g_plus_[static_cast<std::size_t>(st.d)] = val;  // (14)
          break;
        }
      }
    }

    if (round == total_rounds_) {
      if (in_.type == NodeType::kAgent) {
        double sum = 0.0;
        for (std::int32_t d = 0; d <= r_; ++d) {
          sum += g_plus_[static_cast<std::size_t>(d)] +
                 g_minus_[static_cast<std::size_t>(d)];
        }
        // (18), same expression as output_x so the bits agree.
        x_ = sum / (2.0 * static_cast<double>(r_ + 2));
      }
      done_ = true;
    }
  }

  bool halted() const override { return done_; }

  double x() const override { return x_; }

 private:
  // Which exchange (and which half of it) a post-gather round belongs to.
  Step classify(std::int32_t round) const {
    Step st;
    const std::int32_t offset2 = round - gather_rounds_;  // 1-based
    LOCMM_DCHECK(offset2 >= 1);
    if (offset2 <= 4 * r_ + 2) {
      st.kind = Step::Kind::kSmooth;
      st.agents_send = (offset2 % 2) == 1;
      return st;
    }
    const std::int32_t offset3 = offset2 - (4 * r_ + 2);  // 1-based
    LOCMM_DCHECK(offset3 >= 1 && offset3 <= 4 * r_ + 2);
    st.agents_send = (offset3 % 2) == 1;
    const std::int32_t ex = (offset3 - 1) / 2;  // 0 .. 2r
    if (ex == 0) {
      st.kind = Step::Kind::kViaObjective;  // sibling sums of g+_0
      st.d = 0;
    } else if (ex % 2 == 1) {
      st.kind = Step::Kind::kViaConstraint;  // partner g-_{d-1} for g+_d
      st.d = (ex + 1) / 2;
    } else {
      st.kind = Step::Kind::kViaObjective;  // sibling sums of g+_d for g-_d
      st.d = ex / 2;
    }
    return st;
  }

  bool relevant_relay(const Step& st) const {
    switch (st.kind) {
      case Step::Kind::kSmooth: return in_.type != NodeType::kAgent;
      case Step::Kind::kViaObjective: return in_.type == NodeType::kObjective;
      case Step::Kind::kViaConstraint:
        return in_.type == NodeType::kConstraint;
    }
    return false;
  }

  std::int32_t r_;
  TSearchOptions opt_;
  std::int32_t gather_rounds_;
  std::int32_t total_rounds_;

  LocalInput in_;
  ViewGatherCore core_;

  std::vector<double> vals_;  // relay: last received scalar per port
  double t_ = 0.0;
  double s_ = 0.0;
  std::vector<double> g_plus_, g_minus_;
  double x_ = 0.0;
  bool done_ = false;
};

}  // namespace

std::unique_ptr<AgentNodeProgram> make_streaming_program(
    std::int32_t R, const TSearchOptions& opt) {
  LOCMM_CHECK(R >= 2);
  return std::make_unique<StreamingProgram>(R - 2, opt);
}

MessageRunResult solve_special_streaming(const MaxMinInstance& special,
                                         std::int32_t R,
                                         const TSearchOptions& opt,
                                         std::size_t threads,
                                         const FaultPlan* faults,
                                         const DistOptions& dist) {
  LOCMM_CHECK(R >= 2);
  return run_engine(
      special,
      [&](NodeId) { return std::make_unique<StreamingProgram>(R - 2, opt); },
      streaming_rounds(R), R, opt, threads, faults, dist);
}

}  // namespace locmm
