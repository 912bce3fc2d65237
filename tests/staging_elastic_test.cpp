// Elastic staging group, end to end: standbys join mid-workload behind a
// background resilver, retirees drain before leaving, stale client views
// bounce with a typed wrong-epoch reject and refresh, and degraded reads
// reconstruct pieces from redundancy fragments while an owner is down.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/executor.hpp"
#include "core/setups.hpp"
#include "dht/spatial_index.hpp"
#include "net/rpc.hpp"
#include "obs/observability.hpp"
#include "obs/track.hpp"
#include "sim/spawn.hpp"
#include "staging/client.hpp"
#include "staging/degraded_read.hpp"
#include "staging/group.hpp"
#include "staging/server.hpp"

namespace dstage::staging {
namespace {

ServerParams elastic_params(resilience::Redundancy kind) {
  ServerParams p;
  p.logging = true;
  p.policy.kind = kind;
  p.policy.replicas = 2;
  p.policy.rs_k = 2;
  p.policy.rs_m = 1;
  return p;
}

/// A staging group with live membership: `active` servers in the epoch-0
/// view, `standby` more built but outside it, and a GroupManager driving
/// joins/retires.
struct ElasticRig {
  sim::Engine eng;
  net::Fabric fabric{eng, {}};
  cluster::Cluster cluster{eng, fabric};
  Box domain = Box::from_dims(64, 64, 64);
  dht::SpatialIndex index;
  std::vector<cluster::VprocId> server_vprocs;
  std::vector<std::unique_ptr<StagingServer>> servers;
  std::unique_ptr<GroupManager> group;
  cluster::VprocId control_vproc;
  std::unique_ptr<net::Rpc> control;

  ElasticRig(int active, int standby, ServerParams params)
      : index(domain, active, 8) {
    const int total = active + standby;
    for (int s = 0; s < total; ++s) {
      auto vp =
          cluster.add_vproc("srv" + std::to_string(s), cluster.add_node());
      server_vprocs.push_back(vp);
      servers.push_back(std::make_unique<StagingServer>(cluster, vp, params));
      servers.back()->register_var("f", {{1, true}});
    }
    std::vector<net::EndpointId> endpoints;
    for (auto vp : server_vprocs)
      endpoints.push_back(cluster.vproc(vp).endpoint);
    std::vector<StagingServer*> raw;
    for (std::size_t s = 0; s < servers.size(); ++s) {
      servers[s]->set_peers(static_cast<int>(s), endpoints);
      servers[s]->set_group_index(&index);
      servers[s]->apply_membership(index.epoch(), index.active_servers());
      servers[s]->start();
      raw.push_back(servers[s].get());
    }
    auto gm_vproc = cluster.add_vproc("group-mgr", cluster.add_node());
    group = std::make_unique<GroupManager>(cluster, gm_vproc, index,
                                           std::move(raw));
    group->start();
    control_vproc = cluster.add_vproc("ctl", cluster.add_node());
    control = std::make_unique<net::Rpc>(
        fabric, cluster.vproc(control_vproc).endpoint);
  }

  std::unique_ptr<StagingClient> make_client(AppId app) {
    auto vp =
        cluster.add_vproc("app" + std::to_string(app), cluster.add_node());
    ClientParams cp;
    cp.app = app;
    cp.logged = true;
    cp.mem_scale = 4096;
    cp.put_timeout = sim::seconds(15);
    cp.get_timeout = sim::seconds(30);
    auto client = std::make_unique<StagingClient>(cluster, index,
                                                  server_vprocs, vp, cp);
    client->set_group_endpoint(group->endpoint());
    return client;
  }

  sim::Task<GroupChangeAck> change(sim::Ctx ctx, bool join, int server) {
    if (join) {
      JoinGroup req;
      req.server = server;
      return control->call(ctx, group->endpoint(), std::move(req));
    }
    RetireServer req;
    req.server = server;
    return control->call(ctx, group->endpoint(), std::move(req));
  }

  void run() { eng.run(); }

  // Unwind every process so no coroutine frame outlives the rig.
  ~ElasticRig() { cluster.shutdown(); }
};

TEST(StagingElasticTest, ViewPosLocatesServersInMembershipViews) {
  // The membership views a server can hold: the identity view of a fixed
  // group, the view left after a retire (a gap), and the view after a
  // standby joins back in the middle.
  dht::SpatialIndex index(Box::from_dims(64, 64, 64), 4, 8);
  const std::vector<int> identity = index.active_servers();
  (void)index.remove_server(1);
  const std::vector<int> retired = index.active_servers();
  (void)index.add_server(5);
  (void)index.add_server(1);
  const std::vector<int> joined = index.active_servers();
  ASSERT_EQ(identity, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(retired, (std::vector<int>{0, 2, 3}));
  ASSERT_EQ(joined, (std::vector<int>{0, 1, 2, 3, 5}));

  struct Row {
    const std::vector<int>* view;
    int server;
    int pos;
  };
  const std::vector<Row> table = {
      {&identity, 0, 0}, {&identity, 3, 3},  {&identity, 4, -1},
      {&retired, 0, 0},  {&retired, 1, -1},  {&retired, 2, 1},
      {&retired, 3, 2},  {&joined, 1, 1},    {&joined, 4, -1},
      {&joined, 5, 4},   {&joined, 6, -1},   {&joined, -1, -1},
  };
  for (const Row& row : table) {
    EXPECT_EQ(view_pos(*row.view, row.server), row.pos)
        << "server " << row.server;
  }
  EXPECT_EQ(view_pos({}, 0), -1);
}

TEST(StagingElasticTest, JoinResilversAndReadsStayEquivalent) {
  ElasticRig rig(2, 1, elastic_params(resilience::Redundancy::kNone));
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  int wrong = 0, corrupt = 0;
  std::uint64_t bytes = 0;
  bool joined = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 3; ++v)
      co_await producer->put(ctx, "f", v, rig.domain);

    GroupChangeAck ack = co_await rig.change(ctx, /*join=*/true, 2);
    joined = ack.ok && ack.server == 2;

    // Every pre-join version must read back intact through the new map.
    for (Version v = 1; v <= 3; ++v) {
      auto gr = co_await consumer->get(ctx, "f", v, rig.domain);
      wrong += gr.wrong_version;
      corrupt += gr.corrupt;
      bytes += gr.nominal_bytes;
    }
    // New writes land on the grown group, including the joiner.
    co_await producer->put(ctx, "f", 4, rig.domain);
  });
  rig.run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(rig.index.epoch(), 1u);
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(corrupt, 0);
  EXPECT_EQ(bytes, 3u * rig.domain.volume() * 8);
  EXPECT_EQ(rig.group->stats().joins, 1u);
  EXPECT_GT(rig.group->stats().resilver_bytes, 0u);
  // The joiner took real ownership: it now holds data.
  EXPECT_GT(rig.servers[2]->store().nominal_bytes() +
                rig.servers[2]->data_log().nominal_bytes(),
            0u);
}

TEST(StagingElasticTest, RetireDrainsTheLeaverCompletely) {
  ElasticRig rig(3, 0, elastic_params(resilience::Redundancy::kNone));
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  bool retired = false;
  int wrong = 0;
  std::uint64_t bytes = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 2; ++v)
      co_await producer->put(ctx, "f", v, rig.domain);

    GroupChangeAck ack = co_await rig.change(ctx, /*join=*/false, 1);
    retired = ack.ok && ack.server == 1;

    for (Version v = 1; v <= 2; ++v) {
      auto gr = co_await consumer->get(ctx, "f", v, rig.domain);
      wrong += gr.wrong_version + gr.corrupt;
      bytes += gr.nominal_bytes;
    }
  });
  rig.run();
  EXPECT_TRUE(retired);
  EXPECT_TRUE(rig.servers[1]->drained());
  EXPECT_EQ(rig.index.active_servers(), (std::vector<int>{0, 2}));
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(bytes, 2u * rig.domain.volume() * 8);
  EXPECT_EQ(rig.group->stats().retires, 1u);
}

TEST(StagingElasticTest, DrainHandOffsAreCountedLikeResilverOnes) {
  // The retiree's x-strips can straddle cells that move to different
  // successors. No single successor's regions cover such a piece, so only
  // the drain sweep hands it off — and those sends must show in the
  // elastic.resilver_* metrics exactly as in ServerStats.
  obs::Observability obs;
  ElasticRig rig(3, 0, elastic_params(resilience::Redundancy::kNone));
  for (std::size_t s = 0; s < rig.servers.size(); ++s) {
    rig.servers[s]->set_track(
        obs::Track(&obs, nullptr, "staging-" + std::to_string(s)));
  }
  auto producer = rig.make_client(0);
  std::vector<Box> retiree_pieces;
  bool retired = false;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    for (Version v = 1; v <= 2; ++v)
      co_await producer->put(ctx, "f", v, rig.domain);
    for (const Chunk& piece : rig.servers[1]->store().chunks_of("f", 2))
      retiree_pieces.push_back(piece.region);
    GroupChangeAck ack = co_await rig.change(ctx, /*join=*/false, 1);
    retired = ack.ok;
  });
  rig.run();
  ASSERT_TRUE(retired);
  EXPECT_TRUE(rig.servers[1]->drained());
  std::size_t straddlers = 0;
  for (const Box& piece : retiree_pieces) {
    if (rig.index.place(piece).size() > 1) ++straddlers;
  }
  ASSERT_GT(straddlers, 0u);

  const ServerStats& st = rig.servers[1]->stats();
  EXPECT_GT(st.resilver_chunks_out, 0u);
  EXPECT_EQ(obs.metrics()
                .counter("elastic.resilver_chunks_out", "staging-1")
                .value(),
            st.resilver_chunks_out);
  EXPECT_EQ(obs.metrics()
                .counter("elastic.resilver_bytes_out", "staging-1")
                .value(),
            st.resilver_bytes_out);
}

TEST(StagingElasticTest, StaleViewBouncesWithWrongEpochAndRefreshes) {
  ElasticRig rig(2, 1, elastic_params(resilience::Redundancy::kNone));
  auto producer = rig.make_client(0);
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);  // caches epoch-0 view
    (void)co_await rig.change(ctx, /*join=*/true, 2);
    // The stale view still routes moved cells to their old owners; those
    // puts bounce wrong_epoch, the client refreshes, and the put lands.
    auto pr = co_await producer->put(ctx, "f", 2, rig.domain);
    EXPECT_GT(pr.wrong_epoch_retries, 0u);
  });
  rig.run();
  EXPECT_GE(producer->epoch_refreshes(), 1u);
  std::uint64_t rejects = 0;
  for (const auto& s : rig.servers) rejects += s->stats().wrong_epoch_rejects;
  EXPECT_GT(rejects, 0u);
}

TEST(StagingElasticTest, DegradedReadsReconstructDuringOwnerOutage) {
  ElasticRig rig(3, 0, elastic_params(resilience::Redundancy::kErasureCode));
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  consumer->set_resilience_policy(elastic_params(
      resilience::Redundancy::kErasureCode).policy);
  consumer->set_degraded_reads(true);
  std::set<int> down;
  consumer->set_degraded_probe([&](int server) { return down.count(server) > 0; });
  int wrong = 0;
  std::uint64_t bytes = 0;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);
    co_await ctx.delay(sim::seconds(2));  // fragments propagate

    down.insert(0);  // owner down, unrecovered
    auto gr = co_await consumer->get(ctx, "f", 1, rig.domain);
    wrong = gr.wrong_version + gr.corrupt;
    bytes = gr.nominal_bytes;
    EXPECT_GT(gr.degraded_pieces, 0u);
  });
  rig.run();
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(bytes, static_cast<std::uint64_t>(rig.domain.volume()) * 8);
  EXPECT_GT(consumer->degraded_read_count(), 0u);
  std::uint64_t fetches = 0;
  for (const auto& s : rig.servers) fetches += s->stats().fragment_fetches;
  EXPECT_GT(fetches, 0u);
}

TEST(StagingElasticTest, LossBeyondToleranceIsTypedDataLossNotTimeout) {
  // RS(2,1): three fragments per chunk. With the owner and one fragment
  // holder both gone, a single surviving shard is below k — the get must
  // fail fast with the typed DataLossError, not hang into an rpc timeout.
  ElasticRig rig(3, 0, elastic_params(resilience::Redundancy::kErasureCode));
  auto producer = rig.make_client(0);
  auto consumer = rig.make_client(1);
  consumer->set_resilience_policy(elastic_params(
      resilience::Redundancy::kErasureCode).policy);
  consumer->set_degraded_reads(true);
  std::set<int> down;
  consumer->set_degraded_probe([&](int server) { return down.count(server) > 0; });
  bool typed_loss = false;
  sim::TimePoint failed_at{};
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    co_await producer->put(ctx, "f", 1, rig.domain);
    co_await ctx.delay(sim::seconds(2));

    down.insert(0);
    down.insert(1);
    try {
      (void)co_await consumer->get(ctx, "f", 1, rig.domain);
    } catch (const DataLossError& e) {
      typed_loss = true;
      failed_at = rig.eng.now();
      EXPECT_EQ(e.var(), "f");
    }
  });
  rig.run();
  EXPECT_TRUE(typed_loss);
  // Fail-fast: well under the client's 30 s get timeout window.
  EXPECT_LT(failed_at.ns, sim::seconds(20).ns);
}

TEST(StagingElasticTest, WorkflowGrowsAndShrinksMidRun) {
  // The acceptance scenario: a 3-server group grows to 5 and shrinks back
  // to 3 mid-workflow, with every read equivalent across epochs.
  core::WorkflowSpec spec = core::table2_setup(core::Scheme::kUncoordinated);
  spec.total_ts = 12;
  spec.staging_servers = 3;
  spec.elastic.standby_servers = 2;
  spec.elastic.events = {{3, true, -1},
                         {5, true, -1},
                         {8, false, -1},
                         {10, false, -1}};
  core::WorkflowRunner runner(std::move(spec));
  core::RunMetrics m = runner.run();

  EXPECT_EQ(m.total_anomalies(), 0);
  EXPECT_EQ(m.staging.membership_joins, 2u);
  EXPECT_EQ(m.staging.membership_retires, 2u);
  EXPECT_EQ(m.staging.membership_epoch, 4u);
  EXPECT_GT(m.staging.resilver_bytes_moved, 0u);
  for (const auto& c : m.components) EXPECT_EQ(c.timesteps_done, 12);
  EXPECT_EQ(runner.runtime().services().index->active_servers().size(), 3u);
}

TEST(StagingElasticTest, ElasticSpecValidationRejectsNonsense) {
  core::WorkflowSpec spec = core::table2_setup(core::Scheme::kUncoordinated);
  spec.elastic.standby_servers = -1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = core::table2_setup(core::Scheme::kUncoordinated);
  spec.elastic.events = {{1, true, -1}};  // join with no standby built
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = core::table2_setup(core::Scheme::kUncoordinated);
  spec.staging_servers = 1;
  spec.elastic.events = {{1, false, -1}};  // retire would empty the group
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = core::table2_setup(core::Scheme::kUncoordinated);
  spec.elastic.degraded_reads = true;  // no redundancy policy configured
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace dstage::staging
