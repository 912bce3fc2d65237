// Demonstrates the CoREC-style data-resilience layer under the workflow
// framework: staged and logged payloads are protected by erasure-coded
// fragments on peer staging servers, event queues are mirrored to each
// server's successor, and a staging-server crash is healed by the recovery
// manager while a producer/consumer pipeline keeps running.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "dht/spatial_index.hpp"
#include "sim/spawn.hpp"
#include "staging/client.hpp"
#include "staging/recovery.hpp"
#include "staging/server.hpp"

using namespace dstage;

int main() {
  sim::Engine eng;
  net::Fabric fabric(eng, {});
  cluster::Cluster cluster(eng, fabric);
  const Box domain = Box::from_dims(128, 128, 128);
  // RS(4,2): the owner keeps the payload and pushes k+m-1 = 5 shards, one
  // per peer, so six servers give every shard a distinct holder.
  const int nservers = 6;
  dht::SpatialIndex index(domain, nservers, 8);

  staging::ServerParams params;
  params.logging = true;
  params.policy.kind = resilience::Redundancy::kErasureCode;
  params.policy.rs_k = 4;
  params.policy.rs_m = 2;

  std::vector<cluster::VprocId> vprocs;
  std::vector<std::unique_ptr<staging::StagingServer>> servers;
  for (int s = 0; s < nservers; ++s) {
    auto vp = cluster.add_vproc("staging-" + std::to_string(s),
                                cluster.add_node());
    vprocs.push_back(vp);
    servers.push_back(
        std::make_unique<staging::StagingServer>(cluster, vp, params));
    servers.back()->register_var("field", {{1, true}});
  }
  std::vector<net::EndpointId> endpoints;
  for (auto vp : vprocs) endpoints.push_back(cluster.vproc(vp).endpoint);
  for (std::size_t s = 0; s < servers.size(); ++s) {
    servers[s]->set_peers(static_cast<int>(s), endpoints);
    servers[s]->start();
  }
  staging::StagingRecoveryManager manager(cluster, &servers, vprocs, params);
  manager.arm();

  auto make_client = [&](int app) {
    auto vp =
        cluster.add_vproc("app" + std::to_string(app), cluster.add_node());
    staging::ClientParams cp;
    cp.app = app;
    cp.logged = true;
    cp.mem_scale = 4096;
    cp.put_timeout = sim::seconds(15);
    cp.get_timeout = sim::seconds(30);
    return std::make_unique<staging::StagingClient>(cluster, index, vprocs,
                                                    vp, cp);
  };
  auto producer = make_client(0);
  auto consumer = make_client(1);

  int wrong = 0, corrupt = 0;
  sim::spawn(eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&eng, nullptr};
    for (staging::Version v = 1; v <= 10; ++v) {
      co_await ctx.delay(sim::seconds(3));  // "compute"
      co_await producer->put(ctx, "field", v, domain);
      auto r = co_await consumer->get(ctx, "field", v, domain);
      wrong += r.wrong_version;
      corrupt += r.corrupt;
      if (v == 4) {
        std::printf("[t=%.1fs] killing staging server 2 mid-pipeline\n",
                    ctx.now().seconds());
        cluster.kill(vprocs[2]);
      }
    }
  });
  eng.run();

  std::printf("\nstaging failures: %d, recovered: %d\n",
              manager.stats().server_failures,
              manager.stats().servers_recovered);
  std::printf("server 2 rebuilt %llu chunks from peer fragments "
              "(%llu unrecoverable)\n",
              static_cast<unsigned long long>(
                  servers[2]->stats().chunks_rebuilt),
              static_cast<unsigned long long>(
                  servers[2]->stats().rebuild_failures));
  std::uint64_t fragment_bytes = 0;
  for (const auto& s : servers)
    fragment_bytes += s->memory().redundancy_bytes;
  std::printf("fragment bytes across the group: %s (RS(4,2): +5/4 of "
              "payload)\n",
              format_bytes(fragment_bytes).c_str());
  std::printf("pipeline consistency through the outage: %s "
              "(wrong=%d corrupt=%d)\n",
              (wrong + corrupt) == 0 ? "intact" : "VIOLATED", wrong,
              corrupt);
  cluster.shutdown();  // unwind every process before the servers go
  return (wrong + corrupt) == 0 ? 0 : 1;
}
