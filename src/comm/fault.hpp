#pragma once
// Comm fault injection and the reliable ack/retry protocol (DESIGN.md §13).
//
// FaultyComm decorates a MiniComm Communicator with a seeded, deterministic
// fault schedule: any DATA send may be dropped, duplicated, or delayed,
// decided by hashing (seed, epoch, src, dst, tag, attempt) — never by wall
// clock — so a given schedule is reproducible across runs and machines.
// On top of the lossy sends sits `exchange()`: a poll-based reliable
// bidirectional exchange in which every payload is acknowledged, lost
// attempts are retransmitted, and duplicate arrivals are absorbed (matching
// is by (source, wire tag), which the halo/reduction layers never reuse
// within a run). The protocol services incoming DATA and incoming
// ACK/NACKs from one loop, so two peers exchanging payloads can never
// deadlock waiting on each other.
//
// Retransmission is logical, not timed. Each DATA message carries a header
// slot holding its attempt number; a dropped attempt puts a loss notice
// (the negated attempt number) on the wire in its place — the simulated
// stand-in for the receiver noticing a gap — and a delayed attempt sends
// the notice now and its payload only once the receiver has reported it
// missing. The receiver answers each notice with a NACK and the sender
// retransmits only on a NACK. How many attempts a payload takes is
// therefore a function of the schedule alone: a peer that is slow to
// arrive costs time, never retries.
//
// Unsurvivable schedules stay diagnosable instead of hanging: a sender
// whose retry budget runs out throws CommRetryExhausted; a rank whose
// exchange waits on a world in which another rank has already failed
// throws PeerFailed at once; and an exchange that hears nothing from any
// peer for a minute of wall time throws ReliableTimeout (a hung peer or
// mismatched tags — never a lossy schedule). All three derive from
// CommFaultError, the retryable class the solve service keys
// re-enqueue-from-checkpoint on.
//
// ACK/NACK tags sit one bit above the data wire-tag space: HaloExchanger
// derives wire tags as tag * 8 + subtag with tag < 2^20, so every data tag
// is below 2^23 and ACKs occupy [2^23, 2^24), still under
// kCollectiveTagBase.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/minimpi.hpp"

namespace tl::comm {

/// Added to a data wire tag to form its ACK/NACK tag.
inline constexpr int kAckTagOffset = 1 << 23;

/// A deterministic fault schedule plus the retry budget.
struct FaultSpec {
  std::uint64_t seed = 1;   // schedule seed (mixed with epoch)
  double drop = 0.0;        // P(DATA send vanishes)
  double duplicate = 0.0;   // P(DATA send delivered twice)
  double delay = 0.0;       // P(DATA send arrives only after its receiver
                            // has reported it missing)
  int max_attempts = 10;    // sends per payload before CommRetryExhausted

  /// Deterministic hard failure for lifecycle tests: while the injected
  /// step equals hard_fail_step and epoch == 0, every DATA send from
  /// hard_fail_rank is dropped — the world fails diagnosably at a known
  /// step, and a resumed attempt (epoch > 0) sails through.
  int hard_fail_rank = -1;
  int hard_fail_step = -1;
  int epoch = 0;  // resume attempt counter; perturbs the schedule hash

  bool active() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0 || hard_fail_rank >= 0;
  }
};

/// Retryable communication failure (the service re-enqueues on this).
class CommFaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A sender used up its retry budget without seeing an ACK.
class CommRetryExhausted : public CommFaultError {
 public:
  using CommFaultError::CommFaultError;
};

/// An exchange heard nothing from any peer for the whole deadline: a peer
/// is hung, or the two sides disagree on tags.
class ReliableTimeout : public CommFaultError {
 public:
  using CommFaultError::CommFaultError;
};

/// Another rank of the world has failed, so this exchange cannot complete.
class PeerFailed : public CommFaultError {
 public:
  using CommFaultError::CommFaultError;
};

/// Injection/retry tallies for one rank, folded into dist::CommStats.
struct FaultStats {
  std::uint64_t data_sends = 0;  // DATA send attempts (incl. retransmits)
  std::uint64_t retries = 0;     // retransmissions past the first attempt
  std::uint64_t dropped = 0;     // injected drops
  std::uint64_t duplicated = 0;  // injected duplicate deliveries
  std::uint64_t delayed = 0;     // injected deferrals
  std::uint64_t acks_sent = 0;   // ACKs emitted (ACK/NACKs are never
                                 // faulted)
};

/// One outbound / inbound payload of a reliable exchange. The spans must
/// stay valid until exchange() returns.
struct WireOut {
  int dest = 0;
  int tag = 0;
  std::span<const double> data;
};
struct WireIn {
  int source = 0;
  int tag = 0;
  std::span<double> data;
};

class FaultyComm {
 public:
  FaultyComm(Communicator& comm, FaultSpec spec)
      : comm_(comm), spec_(spec) {}

  /// Completes every out (ACKed by its receiver) and every in (payload
  /// delivered exactly once) under the fault schedule, or throws a
  /// CommFaultError subclass. Either span may be empty.
  void exchange(std::span<const WireOut> outs, std::span<const WireIn> ins);

  /// Step-boundary notification (arms/disarms the hard-fail trigger).
  void set_step(int step) noexcept { step_ = step; }

  const FaultStats& stats() const noexcept { return stats_; }
  const FaultSpec& spec() const noexcept { return spec_; }
  Communicator& comm() noexcept { return comm_; }

 private:
  double uniform(int dest, int tag, int attempt, int salt) const;
  /// Puts attempt `attempt` of `out` on the wire under the schedule, using
  /// `wire` (header slot + payload) as the message buffer. Returns true
  /// when the attempt was delayed: its payload is still owed.
  bool faulty_send(const WireOut& out, int attempt, std::vector<double>& wire);

  Communicator& comm_;
  FaultSpec spec_;
  FaultStats stats_;
  int step_ = 0;
};

/// Fault-surviving allreduce(sum): reliable gather-to-0, combine in rank
/// order (bit-identical to MiniComm's sequential reduce), reliable
/// broadcast. `gather_tag`/`bcast_tag` are caller-provided data wire tags
/// (the halo scheme's spare subtags).
void reliable_allreduce_sum(FaultyComm& fc, std::span<double> values,
                            int gather_tag, int bcast_tag);

}  // namespace tl::comm
