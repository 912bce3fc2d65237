// Opt-in request coalescing (net::Config::batching): the client's DHT
// shard fan-out aggregates same-destination chunk puts into one BatchPut
// per server. Off by default; with it on, the same data lands with fewer
// fabric messages and identical read results. Every run is also repeated
// with the client pointed at a GroupManager whose membership never leaves
// epoch 0: a fixed group is the elastic request path at epoch 0, so the
// two must be indistinguishable on the wire and on the servers.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/executor.hpp"
#include "core/setups.hpp"
#include "dht/spatial_index.hpp"
#include "sim/spawn.hpp"
#include "staging/client.hpp"
#include "staging/group.hpp"
#include "staging/server.hpp"

namespace dstage::staging {
namespace {

struct Rig {
  sim::Engine eng;
  net::Fabric fabric{eng, {}};
  cluster::Cluster cluster{eng, fabric};
  Box domain = Box::from_dims(64, 64, 64);
  dht::SpatialIndex index;
  std::vector<cluster::VprocId> server_vprocs;
  std::vector<std::unique_ptr<StagingServer>> servers;
  std::unique_ptr<GroupManager> group;

  explicit Rig(int nservers) : index(domain, nservers, 8) {
    ServerParams sp;
    sp.logging = true;
    for (int s = 0; s < nservers; ++s) {
      auto vp =
          cluster.add_vproc("srv" + std::to_string(s), cluster.add_node());
      server_vprocs.push_back(vp);
      servers.push_back(std::make_unique<StagingServer>(cluster, vp, sp));
      servers.back()->register_var("f", {{1, true}});
    }
    std::vector<net::EndpointId> endpoints;
    for (auto vp : server_vprocs)
      endpoints.push_back(cluster.vproc(vp).endpoint);
    for (std::size_t s = 0; s < servers.size(); ++s) {
      servers[s]->set_peers(static_cast<int>(s), endpoints);
      servers[s]->start();
    }
    // Built in every run so both variants share one topology; only
    // clients given the endpoint ever talk to it.
    std::vector<StagingServer*> raw;
    for (auto& server : servers) raw.push_back(server.get());
    group = std::make_unique<GroupManager>(
        cluster, cluster.add_vproc("group-mgr", cluster.add_node()), index,
        std::move(raw));
    group->start();
  }

  std::unique_ptr<StagingClient> make_client(AppId app, bool batching,
                                             bool group_endpoint) {
    auto vp =
        cluster.add_vproc("app" + std::to_string(app), cluster.add_node());
    ClientParams cp;
    cp.app = app;
    cp.logged = true;
    cp.mem_scale = 4096;
    cp.batching = batching;
    auto client = std::make_unique<StagingClient>(cluster, index,
                                                  server_vprocs, vp, cp);
    if (group_endpoint) client->set_group_endpoint(group->endpoint());
    return client;
  }

  // Unwind every process so no coroutine frame outlives the rig.
  ~Rig() { cluster.shutdown(); }
};

struct PutOutcome {
  PutResult put;
  GetResult get;
  std::uint64_t chk_id = 0;
  QueryResult query;
  std::uint64_t fabric_packets = 0;
  std::uint64_t fabric_bytes = 0;
  std::uint64_t total_packets = 0;
  std::uint64_t total_bytes = 0;
  sim::TimePoint end{};
  std::uint64_t server_puts = 0;
  std::uint64_t batch_puts = 0;
  std::vector<ServerStats> server_stats;
};

PutOutcome run_one(bool batching, bool group_endpoint = false) {
  Rig rig(4);
  auto producer = rig.make_client(0, batching, group_endpoint);
  auto consumer = rig.make_client(1, /*batching=*/false, group_endpoint);
  PutOutcome out;
  sim::spawn(rig.eng, [&]() -> sim::Task<void> {
    sim::Ctx ctx{&rig.eng, nullptr};
    out.put = co_await producer->put(ctx, "f", 1, rig.domain);
    out.fabric_packets = rig.fabric.packets_sent();
    out.fabric_bytes = rig.fabric.bytes_sent();
    out.get = co_await consumer->get(ctx, "f", 1, rig.domain);
    // Group-wide fan-outs: checkpoint broadcast and metadata query.
    out.chk_id = co_await producer->workflow_check(ctx, 1);
    out.query = co_await consumer->query(ctx, "f");
  });
  rig.eng.run();
  out.total_packets = rig.fabric.packets_sent();
  out.total_bytes = rig.fabric.bytes_sent();
  out.end = rig.eng.now();
  for (const auto& s : rig.servers) {
    out.server_puts += s->stats().puts;
    out.batch_puts += s->stats().batch_puts;
    out.server_stats.push_back(s->stats());
  }
  return out;
}

TEST(StagingBatchingTest, CoalescesShardFanOutIntoOneMessagePerServer) {
  const PutOutcome off = run_one(false);
  const PutOutcome on = run_one(true);

  // Same write, same shards, same per-chunk server work.
  EXPECT_EQ(on.put.pieces, off.put.pieces);
  EXPECT_EQ(on.put.nominal_bytes, off.put.nominal_bytes);
  EXPECT_EQ(on.server_puts, off.server_puts);

  // Without batching every piece is a message; with it, one per server.
  EXPECT_EQ(off.put.messages, off.put.pieces);
  EXPECT_EQ(off.batch_puts, 0u);
  ASSERT_GT(off.put.pieces, 4u);  // the sweep actually fans out
  EXPECT_EQ(on.put.messages, 4u);
  EXPECT_EQ(on.batch_puts, 4u);
  EXPECT_LT(on.fabric_packets, off.fabric_packets);

  // The envelope saving is real but bounded: one 64 B header per
  // coalesced chunk replaces a full per-message object header.
  EXPECT_LT(on.fabric_bytes, off.fabric_bytes);

  // Readers cannot tell the difference.
  EXPECT_EQ(on.get.nominal_bytes, off.get.nominal_bytes);
  EXPECT_EQ(on.get.wrong_version, 0);
  EXPECT_EQ(on.get.corrupt, 0);
}

// Same four servers, same client traffic: once with no group endpoint,
// once through a GroupManager whose view stays at epoch 0.
class EpochZeroEquivalenceTest : public ::testing::TestWithParam<bool> {};

TEST_P(EpochZeroEquivalenceTest, GroupEndpointAtEpochZeroIsInvisible) {
  const bool batching = GetParam();
  const PutOutcome fixed = run_one(batching, /*group_endpoint=*/false);
  const PutOutcome group = run_one(batching, /*group_endpoint=*/true);

  EXPECT_EQ(group.put.response_time, fixed.put.response_time);
  EXPECT_EQ(group.put.nominal_bytes, fixed.put.nominal_bytes);
  EXPECT_EQ(group.put.pieces, fixed.put.pieces);
  EXPECT_EQ(group.put.suppressed, fixed.put.suppressed);
  EXPECT_EQ(group.put.messages, fixed.put.messages);
  EXPECT_EQ(group.put.backpressure_resends, fixed.put.backpressure_resends);
  EXPECT_EQ(group.put.wrong_epoch_retries, 0u);
  EXPECT_EQ(fixed.put.wrong_epoch_retries, 0u);

  EXPECT_EQ(group.get.response_time, fixed.get.response_time);
  EXPECT_EQ(group.get.nominal_bytes, fixed.get.nominal_bytes);
  EXPECT_EQ(group.get.wrong_version, fixed.get.wrong_version);
  EXPECT_EQ(group.get.corrupt, fixed.get.corrupt);
  EXPECT_EQ(group.get.any_from_log, fixed.get.any_from_log);
  EXPECT_EQ(group.get.wrong_epoch_retries, 0u);
  EXPECT_EQ(fixed.get.wrong_epoch_retries, 0u);
  EXPECT_EQ(group.get.degraded_pieces, fixed.get.degraded_pieces);
  ASSERT_EQ(group.get.pieces.size(), fixed.get.pieces.size());
  for (std::size_t i = 0; i < fixed.get.pieces.size(); ++i) {
    EXPECT_EQ(group.get.pieces[i].region, fixed.get.pieces[i].region);
    EXPECT_EQ(group.get.pieces[i].content_key,
              fixed.get.pieces[i].content_key);
  }

  EXPECT_EQ(group.chk_id, fixed.chk_id);
  EXPECT_EQ(group.query.available, fixed.query.available);
  EXPECT_EQ(group.query.fully_logged, fixed.query.fully_logged);

  EXPECT_EQ(group.fabric_packets, fixed.fabric_packets);
  EXPECT_EQ(group.fabric_bytes, fixed.fabric_bytes);
  EXPECT_EQ(group.total_packets, fixed.total_packets);
  EXPECT_EQ(group.total_bytes, fixed.total_bytes);
  EXPECT_EQ(group.end, fixed.end);

  // ServerStats is all counters, so equal bytes mean equal stats.
  static_assert(std::has_unique_object_representations_v<ServerStats>);
  ASSERT_EQ(group.server_stats.size(), fixed.server_stats.size());
  for (std::size_t s = 0; s < fixed.server_stats.size(); ++s) {
    EXPECT_EQ(std::memcmp(&group.server_stats[s], &fixed.server_stats[s],
                          sizeof(ServerStats)),
              0)
        << "server " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Batching, EpochZeroEquivalenceTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "On" : "Off";
                         });

TEST(StagingBatchingTest, WorkflowRunsCleanWithBatchingOn) {
  core::WorkflowSpec spec =
      core::table2_setup(core::Scheme::kUncoordinated);
  spec.total_ts = 6;
  spec.net.batching = true;
  core::WorkflowRunner runner(std::move(spec));
  const core::RunMetrics m = runner.run();

  EXPECT_EQ(m.total_anomalies(), 0);
  EXPECT_GT(m.staging.batch_puts, 0u);
  EXPECT_GT(m.staging.puts, m.staging.batch_puts);  // real coalescing

  // The same spec without batching stages the same chunk population.
  core::WorkflowSpec base =
      core::table2_setup(core::Scheme::kUncoordinated);
  base.total_ts = 6;
  core::WorkflowRunner base_runner(std::move(base));
  const core::RunMetrics b = base_runner.run();
  EXPECT_EQ(m.staging.puts, b.staging.puts);
  EXPECT_EQ(b.staging.batch_puts, 0u);
  EXPECT_LT(m.fabric_packets, b.fabric_packets);
}

}  // namespace
}  // namespace dstage::staging
