#include "models/ocllike/opencl.hpp"

#include <stdexcept>

namespace ocllike {

Buffer::Buffer(Context& ctx, std::size_t count) : storage_(count) {
  (void)ctx;  // real OpenCL ties buffers to a context; ours share the host heap
}

std::vector<PlatformDevice> get_platform_devices() {
  std::vector<PlatformDevice> out;
  for (const tl::sim::DeviceId d : tl::sim::kAllDevices) {
    out.push_back(PlatformDevice{d, std::string(tl::sim::device_spec(d).name)});
  }
  return out;
}

void CommandQueue::enqueue_write(Buffer& dst, std::span<const double> src) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("ocllike: enqueue_write size mismatch");
  }
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
  ctx_->launcher().charge_transfer(tl::sim::TransferInfo{
      .name = "clEnqueueWriteBuffer", .bytes = src.size_bytes(),
      .to_device = true});
}

void CommandQueue::enqueue_read(const Buffer& src, std::span<double> dst) {
  if (dst.size() != src.size()) {
    throw std::invalid_argument("ocllike: enqueue_read size mismatch");
  }
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = src[i];
  ctx_->launcher().charge_transfer(tl::sim::TransferInfo{
      .name = "clEnqueueReadBuffer", .bytes = dst.size_bytes(),
      .to_device = false});
}

}  // namespace ocllike
