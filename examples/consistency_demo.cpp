// Reproduces the Fig. 2 inconsistency cases directly against the staging
// API (the Global User Interface of Table 1), then shows the logged
// interface eliminating them.
//
//   case 1: a restarted consumer re-reads and observes a *newer* version
//           than it did initially (detected via content keys);
//   case 2: a restarted producer re-stages data that is already staged
//           (wasted writes), which logging suppresses.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "core/dspaces_api.hpp"
#include "dht/spatial_index.hpp"
#include "sim/spawn.hpp"
#include "staging/client.hpp"
#include "staging/server.hpp"

using namespace dstage;

namespace {

struct Stage {
  sim::Engine eng;
  net::Fabric fabric{eng, {}};
  cluster::Cluster cluster{eng, fabric};
  Box domain = Box::from_dims(64, 64, 64);
  dht::SpatialIndex index{domain, 2, 8};
  std::vector<cluster::VprocId> server_vprocs;
  std::vector<std::unique_ptr<staging::StagingServer>> servers;

  explicit Stage(bool logging) {
    staging::ServerParams params;
    params.logging = logging;
    for (int s = 0; s < 2; ++s) {
      auto vp =
          cluster.add_vproc("srv" + std::to_string(s), cluster.add_node());
      server_vprocs.push_back(vp);
      servers.push_back(
          std::make_unique<staging::StagingServer>(cluster, vp, params));
      servers.back()->start();
      servers.back()->register_var("field", {{1, true}});
    }
  }

  std::unique_ptr<staging::StagingClient> client(int app, bool logged) {
    auto vp =
        cluster.add_vproc("app" + std::to_string(app), cluster.add_node());
    staging::ClientParams cp;
    cp.app = app;
    cp.logged = logged;
    cp.mem_scale = 4096;
    return std::make_unique<staging::StagingClient>(
        cluster, index, server_vprocs, vp, cp);
  }

  // Unwind every process so no coroutine frame outlives the rig.
  ~Stage() { cluster.shutdown(); }
};

// A producer stages versions 1..5; the consumer reads them, checkpointing
// after version 2, then "fails" and re-reads 3..5. Returns the number of
// wrong-version reads observed during the replay.
int consumer_restart_scenario(bool logged) {
  Stage stage(logged);
  auto producer = stage.client(0, logged);
  auto consumer = stage.client(1, logged);
  int wrong = 0;
  std::uint64_t suppressed = 0;
  sim::spawn(stage.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&stage.eng, nullptr};
    for (staging::Version v = 1; v <= 5; ++v) {
      co_await core::dspaces_put_with_log(*producer, ctx, "field", v,
                                          stage.domain);
      auto r = co_await core::dspaces_get_with_log(*consumer, ctx, "field",
                                                   v, stage.domain);
      wrong += r.wrong_version;
      if (v == 2) co_await core::workflow_check(*consumer, ctx, 2);
    }
    // The consumer fails, rolls back to its ts-2 checkpoint, re-attaches...
    co_await core::workflow_restart(*consumer, ctx, 2);
    // ...and re-executes its reads of versions 3..5.
    for (staging::Version v = 3; v <= 5; ++v) {
      auto r = co_await core::dspaces_get_with_log(*consumer, ctx, "field",
                                                   v, stage.domain);
      wrong += r.wrong_version;
    }
    // The producer also demonstrates case 2: roll it back to a checkpoint
    // and re-issue its writes.
    co_await core::workflow_check(*producer, ctx, 3);
    co_await core::dspaces_put_with_log(*producer, ctx, "field", 6,
                                        stage.domain);
    co_await core::workflow_restart(*producer, ctx, 3);
    auto p = co_await core::dspaces_put_with_log(*producer, ctx, "field", 6,
                                                 stage.domain);
    suppressed = p.suppressed;
  });
  stage.eng.run();
  std::printf("  %-14s wrong-version reads: %d, redundant writes "
              "suppressed: %llu\n",
              logged ? "with logging:" : "without:", wrong,
              static_cast<unsigned long long>(suppressed));
  return wrong;
}

}  // namespace

int main() {
  std::printf("Fig. 2 consistency anomalies, reproduced against the staging "
              "API\n\n");
  std::printf("individual C/R (no data logging):\n");
  const int unlogged_wrong = consumer_restart_scenario(false);
  std::printf("\nuncoordinated C/R with data logging:\n");
  const int logged_wrong = consumer_restart_scenario(true);

  const bool demonstrates = unlogged_wrong > 0 && logged_wrong == 0;
  std::printf("\n%s\n",
              demonstrates
                  ? "=> the data log restores exactly the versions the "
                    "consumer saw initially; without it the restarted "
                    "consumer reads the wrong data."
                  : "UNEXPECTED: scenario did not demonstrate the anomaly");
  return demonstrates ? 0 : 1;
}
