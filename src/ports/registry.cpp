#include "ports/registry.hpp"

#include <stdexcept>
#include <string>

#include "ports/port.hpp"

namespace tl::ports {

bool is_supported(sim::Model model, sim::DeviceId device) {
  return sim::codegen_profile(model, device).supported;
}

std::unique_ptr<core::SolverKernels> make_port(sim::Model model,
                                               sim::DeviceId device,
                                               const core::Mesh& mesh,
                                               std::uint64_t run_seed,
                                               unsigned host_threads) {
  if (!is_supported(model, device)) {
    throw std::invalid_argument(std::string(sim::model_name(model)) +
                                " does not support device '" +
                                std::string(sim::device_short_name(device)) +
                                "' (paper Table 1)");
  }
  switch (model) {
    case sim::Model::kFortran:
    case sim::Model::kOmp3Cpp:
      return std::make_unique<RegionPort<HostRowsPolicy>>(
          model, device, mesh, run_seed, host_threads);
    case sim::Model::kOmp4:
    case sim::Model::kOpenAcc:
      return std::make_unique<Port<OffloadPolicy>>(model, device, mesh,
                                                   run_seed, host_threads);
    case sim::Model::kKokkos:
    case sim::Model::kKokkosHp:
      return std::make_unique<Port<KokkosPolicy>>(model, device, mesh,
                                                  run_seed, host_threads);
    case sim::Model::kRaja:
    case sim::Model::kRajaSimd:
      return std::make_unique<Port<RajaPolicy>>(model, device, mesh, run_seed,
                                                host_threads);
    case sim::Model::kOpenCl:
      return std::make_unique<Port<OpenClPolicy>>(model, device, mesh,
                                                  run_seed, host_threads);
    case sim::Model::kCuda:
      return std::make_unique<Port<CudaPolicy>>(model, device, mesh, run_seed,
                                                host_threads);
  }
  throw std::invalid_argument("make_port: unknown model");
}

std::vector<sim::Model> figure_models(sim::DeviceId device) {
  using sim::Model;
  switch (device) {
    case sim::DeviceId::kCpuSandyBridge:  // paper Fig 8
      return {Model::kFortran, Model::kOmp3Cpp, Model::kKokkos, Model::kRaja,
              Model::kRajaSimd, Model::kOpenCl};
    case sim::DeviceId::kGpuK20X:  // paper Fig 9
      return {Model::kCuda, Model::kOpenCl, Model::kOpenAcc, Model::kKokkos,
              Model::kKokkosHp};
    case sim::DeviceId::kMicKnc:  // paper Fig 10
      return {Model::kFortran, Model::kOmp4, Model::kOpenCl, Model::kRaja,
              Model::kKokkos, Model::kKokkosHp};
  }
  return {};
}

}  // namespace tl::ports
