#include "comm/fault.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/string_util.hpp"

namespace tl::comm {

namespace {

/// splitmix64 finaliser — the schedule hash.
/// Wall time an exchange may go without hearing from any peer. Only a hung
/// peer or mismatched tags can use it up: lossy schedules end by retry
/// exhaustion and dead peers by the World's failed mark.
constexpr std::chrono::seconds kPeerDeadline{60};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

double FaultyComm::uniform(int dest, int tag, int attempt, int salt) const {
  std::uint64_t h = spec_.seed;
  h = mix64(h ^ (static_cast<std::uint64_t>(spec_.epoch) << 48));
  h = mix64(h ^ (static_cast<std::uint64_t>(comm_.rank()) << 32) ^
            static_cast<std::uint64_t>(dest));
  h = mix64(h ^ (static_cast<std::uint64_t>(tag) << 16) ^
            (static_cast<std::uint64_t>(attempt) << 8) ^
            static_cast<std::uint64_t>(salt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultyComm::faulty_send(const WireOut& out, int attempt,
                             std::vector<double>& wire) {
  ++stats_.data_sends;
  const bool hard_fail = spec_.epoch == 0 &&
                         comm_.rank() == spec_.hard_fail_rank &&
                         step_ == spec_.hard_fail_step;
  const bool dropped =
      hard_fail || uniform(out.dest, out.tag, attempt, 0) < spec_.drop;
  const bool delayed =
      !dropped && uniform(out.dest, out.tag, attempt, 1) < spec_.delay;
  if (dropped) ++stats_.dropped;
  if (delayed) ++stats_.delayed;
  if (dropped || delayed) {
    // Loss notice in the attempt's place: the header alone is meaningful.
    wire[0] = -static_cast<double>(attempt);
    comm_.send(wire, out.dest, out.tag);
    return delayed;
  }
  wire[0] = static_cast<double>(attempt);
  std::copy(out.data.begin(), out.data.end(), wire.begin() + 1);
  comm_.send(wire, out.dest, out.tag);
  if (uniform(out.dest, out.tag, attempt, 2) < spec_.duplicate) {
    ++stats_.duplicated;
    comm_.send(wire, out.dest, out.tag);
  }
  return false;
}

void FaultyComm::exchange(std::span<const WireOut> outs,
                          std::span<const WireIn> ins) {
  // ACK/NACK payload: kAck, or the attempt number the receiver found lost.
  constexpr double kAck = 0.0;
  struct OutState {
    int attempt = 1;
    bool owes_late_copy = false;  // current attempt was delayed
    bool acked = false;
    std::vector<double> wire;     // header slot + payload
  };
  std::vector<OutState> ostate(outs.size());
  std::vector<char> got(ins.size(), 0);

  std::size_t scratch_len = 0;
  for (const WireIn& in : ins) scratch_len = std::max(scratch_len, in.data.size());
  std::vector<double> in_wire(scratch_len + 1);
  double ctl = 0.0;

  const auto reply = [&](const WireIn& in, double value) {
    if (value == kAck) ++stats_.acks_sent;
    comm_.send(std::span<const double>(&value, 1), in.source,
               in.tag + kAckTagOffset);
  };

  for (std::size_t i = 0; i < outs.size(); ++i) {
    ostate[i].wire.assign(outs[i].data.size() + 1, 0.0);
    ostate[i].owes_late_copy = faulty_send(outs[i], 1, ostate[i].wire);
  }

  using Clock = std::chrono::steady_clock;
  auto last_heard = Clock::now();
  std::size_t remaining = outs.size() + ins.size();
  while (remaining > 0) {
    bool progress = false;

    for (std::size_t j = 0; j < ins.size(); ++j) {
      const WireIn& in = ins[j];
      std::span<double> wire(in_wire.data(), in.data.size() + 1);
      // Messages on one (source, tag) arrive in send order, so the receiver
      // sees each attempt's delivery or loss notice in attempt order.
      while (comm_.try_recv(wire, in.source, in.tag)) {
        progress = true;
        if (got[j] != 0) continue;  // duplicate or late copy: absorb
        if (wire[0] > 0.0) {
          std::copy(wire.begin() + 1, wire.end(), in.data.begin());
          got[j] = 1;
          --remaining;
          reply(in, kAck);
        } else {
          reply(in, -wire[0]);  // NACK the lost attempt
        }
      }
    }

    for (std::size_t i = 0; i < outs.size(); ++i) {
      OutState& st = ostate[i];
      if (st.acked) continue;
      if (!comm_.try_recv(std::span<double>(&ctl, 1), outs[i].dest,
                          outs[i].tag + kAckTagOffset)) {
        continue;
      }
      progress = true;
      if (ctl == kAck) {
        st.acked = true;
        --remaining;
        continue;
      }
      if (st.owes_late_copy) {
        // The delayed payload lands after its loss was reported.
        st.wire[0] = static_cast<double>(st.attempt);
        std::copy(outs[i].data.begin(), outs[i].data.end(),
                  st.wire.begin() + 1);
        comm_.send(st.wire, outs[i].dest, outs[i].tag);
      }
      if (st.attempt >= spec_.max_attempts) {
        throw CommRetryExhausted(util::strf(
            "reliable exchange: rank %d -> %d tag %d unacked after %d "
            "attempt(s) (seed %llu, epoch %d)",
            comm_.rank(), outs[i].dest, outs[i].tag, st.attempt,
            static_cast<unsigned long long>(spec_.seed), spec_.epoch));
      }
      ++st.attempt;
      ++stats_.retries;
      st.owes_late_copy = faulty_send(outs[i], st.attempt, st.wire);
    }

    if (progress) {
      last_heard = Clock::now();
      continue;
    }
    if (const int failed = comm_.failed_rank(); failed >= 0) {
      throw PeerFailed(util::strf(
          "reliable exchange: rank %d abandons its exchange because rank %d "
          "failed (seed %llu, epoch %d)",
          comm_.rank(), failed, static_cast<unsigned long long>(spec_.seed),
          spec_.epoch));
    }
    if (Clock::now() - last_heard > kPeerDeadline) {
      std::size_t outs_left = 0, ins_left = 0;
      for (const OutState& st : ostate) outs_left += st.acked ? 0 : 1;
      for (char g : got) ins_left += g ? 0 : 1;
      throw ReliableTimeout(util::strf(
          "reliable exchange: rank %d heard from no peer for %lld s with %zu "
          "send(s) unacked and %zu recv(s) missing (seed %llu, epoch %d) — "
          "peer hung or tags mismatched",
          comm_.rank(), static_cast<long long>(kPeerDeadline.count()),
          outs_left, ins_left,
          static_cast<unsigned long long>(spec_.seed), spec_.epoch));
    }
    std::this_thread::yield();
  }
}

void reliable_allreduce_sum(FaultyComm& fc, std::span<double> values,
                            int gather_tag, int bcast_tag) {
  Communicator& comm = fc.comm();
  const int rank = comm.rank();
  const int size = comm.size();
  if (size == 1) return;
  const std::size_t n = values.size();

  if (rank == 0) {
    std::vector<double> incoming(static_cast<std::size_t>(size - 1) * n);
    std::vector<WireIn> ins;
    ins.reserve(static_cast<std::size_t>(size - 1));
    for (int r = 1; r < size; ++r) {
      ins.push_back({r, gather_tag,
                     std::span<double>(incoming.data() +
                                           static_cast<std::size_t>(r - 1) * n,
                                       n)});
    }
    fc.exchange({}, ins);
    // Rank-order combine: bit-identical to MiniComm's sequential reduce.
    for (int r = 1; r < size; ++r) {
      const double* block = incoming.data() + static_cast<std::size_t>(r - 1) * n;
      for (std::size_t k = 0; k < n; ++k) values[k] += block[k];
    }
    std::vector<WireOut> outs;
    outs.reserve(static_cast<std::size_t>(size - 1));
    for (int r = 1; r < size; ++r) {
      outs.push_back({r, bcast_tag, std::span<const double>(values)});
    }
    fc.exchange(outs, {});
  } else {
    const WireOut contribute{0, gather_tag, std::span<const double>(values)};
    fc.exchange(std::span<const WireOut>(&contribute, 1), {});
    const WireIn result{0, bcast_tag, values};
    fc.exchange({}, std::span<const WireIn>(&result, 1));
  }
}

}  // namespace tl::comm
