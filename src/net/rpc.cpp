#include "net/rpc.hpp"

namespace dstage::net {

sim::Task<void> Rpc::send_impl(sim::Ctx ctx, EndpointId dst, Message message) {
  ++stats_.oneways;
  co_await fabric_->send(ctx, self_, dst, std::move(message));
}

}  // namespace dstage::net
