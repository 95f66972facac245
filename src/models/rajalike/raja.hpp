#pragma once
// RAJA-like programming model layer (from-scratch reimplementation of the
// API *style* the paper's RAJA port uses — see DESIGN.md substitutions).
//
// Reproduced concepts, following Hornung et al. and the paper's section 2.3:
//   - decoupling of loop body (lambda) from traversal (execution policy);
//   - Segments: ListSegments (indirection arrays) partition the iteration
//     space;
//   - IndexSets aggregate segments and are dispatched by forall<Policy>;
//     TeaLeaf's halo exclusion is encoded as per-row ListSegments, which is
//     precisely the indirection that precludes vectorisation in the paper;
//   - the simd_exec policy models the paper's RAJA SIMD proof of concept
//     (OpenMP 4.0 `simd` on the inner loops).
//
// The TeaLeaf port (ports/policies.hpp RajaPolicy) charges its transfers
// through this context's launcher and runs the ports' shared row walk under
// it; the indirection is priced by the launches' traits.indirection, and its
// host cost is measured over forall here by bench_micro_models.

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "models/launcher.hpp"

namespace rajalike {

// Execution policy tags. The policy choice is reflected in the KernelTraits
// the port passes with each forall (indirection / simd_forced); these tags
// keep the call sites reading like RAJA.
struct seq_exec {};
struct omp_parallel_for_exec {};
struct omp_parallel_simd_exec {};

/// Explicit indirection list: iteration visits idx[0], idx[1], ...
struct ListSegment {
  std::vector<std::int64_t> indices;
};

class IndexSet {
 public:
  void push_back(ListSegment s) { segments_.push_back(std::move(s)); }

  const std::vector<ListSegment>& segments() const noexcept {
    return segments_;
  }

  std::int64_t total_length() const noexcept {
    std::int64_t n = 0;
    for (const ListSegment& s : segments_) {
      n += static_cast<std::int64_t>(s.indices.size());
    }
    return n;
  }

  /// True when any segment traverses through an indirection list (every
  /// segment does).
  bool has_indirection() const noexcept { return !segments_.empty(); }

 private:
  std::vector<ListSegment> segments_;
};

/// Builds the TeaLeaf interior IndexSet: one ListSegment per interior row of
/// an (nx + 2h) x (ny + 2h) field, excluding `pad` extra cells on each side
/// of the interior. This is the "pre-computation of indirection lists"
/// the paper discusses placing early in the application.
IndexSet make_interior_index_set(int nx, int ny, int halo_depth, int pad = 0);

class Context {
 public:
  Context(tl::sim::Model model, tl::sim::DeviceId device,
          std::uint64_t run_seed = 1)
      : launcher_(model, device, run_seed) {}

  models::Launcher& launcher() noexcept { return launcher_; }

  /// Dispatches every segment of the IndexSet through the loop body. The
  /// LaunchInfo covers the whole forall (one conceptual kernel).
  template <typename Policy, typename Body>
  void forall(const tl::sim::LaunchInfo& info, const IndexSet& iset,
              Body&& body) {
    static_assert(std::is_same_v<Policy, seq_exec> ||
                      std::is_same_v<Policy, omp_parallel_for_exec> ||
                      std::is_same_v<Policy, omp_parallel_simd_exec>,
                  "unknown RAJA-like execution policy");
    launcher_.run(info, [&] {
      for (const ListSegment& s : iset.segments()) {
        for (const std::int64_t i : s.indices) body(i);
      }
    });
  }

 private:
  models::Launcher launcher_;
};

}  // namespace rajalike
