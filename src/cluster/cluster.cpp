#include "cluster/cluster.hpp"

namespace dstage::cluster {

VprocId Cluster::add_vproc(std::string name, net::NodeId node) {
  auto vp = std::make_unique<Vproc>();
  vp->id = static_cast<VprocId>(vprocs_.size());
  vp->node = node;
  vp->endpoint = fabric_->add_endpoint(node);
  vp->name = std::move(name);
  vp->token = std::make_unique<sim::CancelToken>();
  vprocs_.push_back(std::move(vp));
  return vprocs_.back()->id;
}

Vproc& Cluster::vproc(VprocId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= vprocs_.size())
    throw std::out_of_range("unknown vproc");
  return *vprocs_[static_cast<std::size_t>(id)];
}

const Vproc& Cluster::vproc(VprocId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= vprocs_.size())
    throw std::out_of_range("unknown vproc");
  return *vprocs_[static_cast<std::size_t>(id)];
}

void Cluster::kill(VprocId id) {
  Vproc& vp = vproc(id);
  if (!vp.alive) return;
  vp.alive = false;
  ++kill_count_;
  vp.token->cancel();
  for (auto& observer : observers_) {
    eng_->schedule_call(detection_delay_,
                        [observer, id] { observer(id); });
  }
}

void Cluster::shutdown() {
  observers_.clear();
  for (const auto& vp : vprocs_) kill(vp->id);
  eng_->run();
}

void Cluster::revive(VprocId id) {
  Vproc& vp = vproc(id);
  if (vp.alive) throw std::logic_error("revive of a live vproc");
  vp.alive = true;
  ++vp.incarnation;
  vp.token->reset();
}

}  // namespace dstage::cluster
