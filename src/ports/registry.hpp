#pragma once
// Port registry: name -> factory, plus the paper's Table 1 support matrix.

#include <memory>
#include <vector>

#include "core/kernels_api.hpp"
#include "core/mesh.hpp"
#include "sim/codegen.hpp"
#include "sim/device.hpp"
#include "sim/model_id.hpp"

namespace tl::ports {

/// Creates the TeaLeaf port for `model` targeting simulated `device`.
/// `host_threads` is the HostPool width of the OpenMP 3.0 ports (fortran,
/// omp3), whose results are bit-identical at any width; every other model
/// runs its kernels on the calling thread and ignores it.
/// Throws std::invalid_argument for unsupported pairs (Table 1).
std::unique_ptr<core::SolverKernels> make_port(sim::Model model,
                                               sim::DeviceId device,
                                               const core::Mesh& mesh,
                                               std::uint64_t run_seed = 1,
                                               unsigned host_threads = 1);

/// True when the (model, device) pair is supported (Table 1).
bool is_supported(sim::Model model, sim::DeviceId device);

/// The series the paper plots per device figure (Fig 8/9/10).
std::vector<sim::Model> figure_models(sim::DeviceId device);

}  // namespace tl::ports
