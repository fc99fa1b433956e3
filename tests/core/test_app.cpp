#include "core/app.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/backup.hpp"

namespace jacepp::core {
namespace {

TEST(BackupPeers, PaperFigureFiveNeighbours) {
  // Figure 5: with two backup-peers, a task's checkpoints go to its left and
  // right neighbours.
  const auto peers = backup_peers_of(/*task=*/2, /*task_count=*/4,
                                     /*backup_peer_count=*/2);
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0], 3u);  // right neighbour
  EXPECT_EQ(peers[1], 1u);  // left neighbour
}

TEST(BackupPeers, WrapsAroundTaskSpace) {
  const auto peers = backup_peers_of(0, 4, 2);
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0], 1u);
  EXPECT_EQ(peers[1], 3u);  // wraps to the last task
}

TEST(BackupPeers, NeverIncludesSelfAndNeverDuplicates) {
  for (std::uint32_t count : {2u, 3u, 5u, 8u}) {
    for (std::uint32_t task = 0; task < count; ++task) {
      const auto peers = backup_peers_of(task, count, 20);
      std::set<TaskId> unique(peers.begin(), peers.end());
      EXPECT_EQ(unique.size(), peers.size());
      EXPECT_EQ(unique.count(task), 0u);
      EXPECT_EQ(peers.size(), count - 1u);  // capped at task_count - 1
    }
  }
}

TEST(BackupPeers, SingleTaskHasNoPeers) {
  EXPECT_TRUE(backup_peers_of(0, 1, 20).empty());
}

TEST(BackupPeers, RespectsRequestedCount) {
  const auto peers = backup_peers_of(10, 80, 20);
  EXPECT_EQ(peers.size(), 20u);
}

TEST(AppDescriptor, SerializationRoundTrip) {
  AppDescriptor app;
  app.app_id = 9;
  app.program = "poisson";
  app.config = {1, 2, 3};
  app.task_count = 80;
  app.checkpoint_every = 5;
  app.backup_peer_count = 20;
  app.convergence_threshold = 1e-7;
  app.stable_iterations_required = 4;

  const auto decoded = serial::decode<AppDescriptor>(serial::encode(app));
  EXPECT_EQ(decoded.app_id, app.app_id);
  EXPECT_EQ(decoded.program, app.program);
  EXPECT_EQ(decoded.config, app.config);
  EXPECT_EQ(decoded.task_count, app.task_count);
  EXPECT_EQ(decoded.checkpoint_every, app.checkpoint_every);
  EXPECT_EQ(decoded.backup_peer_count, app.backup_peer_count);
  EXPECT_DOUBLE_EQ(decoded.convergence_threshold, app.convergence_threshold);
  EXPECT_EQ(decoded.stable_iterations_required, app.stable_iterations_required);
}

TEST(AppRegister, FindAndDaemonOf) {
  AppRegister reg;
  reg.app_id = 1;
  reg.tasks = {{0, net::Stub{10, 1, net::EntityKind::Daemon}},
               {1, net::Stub{11, 1, net::EntityKind::Daemon}}};
  EXPECT_EQ(reg.daemon_of(0).node, 10u);
  EXPECT_EQ(reg.daemon_of(1).node, 11u);
  EXPECT_FALSE(reg.daemon_of(7).valid());
  EXPECT_NE(reg.find(1), nullptr);
  EXPECT_EQ(reg.find(9), nullptr);

  // A register from a peer may be out of order or have gaps: lookups still
  // resolve by task id, not by position.
  AppRegister shuffled;
  shuffled.tasks = {{2, net::Stub{12, 1, net::EntityKind::Daemon}},
                    {0, net::Stub{10, 1, net::EntityKind::Daemon}},
                    {1, net::Stub{11, 1, net::EntityKind::Daemon}}};
  EXPECT_EQ(shuffled.daemon_of(0).node, 10u);
  EXPECT_EQ(shuffled.daemon_of(1).node, 11u);
  EXPECT_EQ(shuffled.daemon_of(2).node, 12u);
  EXPECT_EQ(shuffled.find(3), nullptr);

  AppRegister gapped;
  gapped.tasks = {{0, net::Stub{10, 1, net::EntityKind::Daemon}},
                  {3, net::Stub{13, 1, net::EntityKind::Daemon}},
                  {5, net::Stub{15, 1, net::EntityKind::Daemon}}};
  EXPECT_EQ(gapped.daemon_of(0).node, 10u);
  EXPECT_EQ(gapped.daemon_of(3).node, 13u);
  EXPECT_EQ(gapped.daemon_of(5).node, 15u);
  EXPECT_EQ(gapped.find(1), nullptr);
  EXPECT_EQ(gapped.find(2), nullptr);
  EXPECT_FALSE(gapped.daemon_of(4).valid());
}

TEST(AppRegister, SerializationRoundTrip) {
  AppRegister reg;
  reg.app_id = 3;
  reg.version = 17;
  reg.spawner = net::Stub{99, 1, net::EntityKind::Spawner};
  reg.tasks = {{0, net::Stub{10, 2, net::EntityKind::Daemon}},
               {1, net::Stub{}},  // failed slot: invalid stub
               {2, net::Stub{12, 1, net::EntityKind::Daemon}}};
  const auto decoded = serial::decode<AppRegister>(serial::encode(reg));
  EXPECT_EQ(decoded.version, 17u);
  EXPECT_EQ(decoded.spawner.node, 99u);
  ASSERT_EQ(decoded.tasks.size(), 3u);
  EXPECT_FALSE(decoded.tasks[1].daemon.valid());
  EXPECT_EQ(decoded.tasks[2].daemon.node, 12u);
}

// Shorthand: a checkpoint frame for `state` (chunk size 4).
serial::Bytes full(std::uint64_t baseline_id, const serial::Bytes& state) {
  return checkpoint::encode_full_frame(baseline_id, 4, state);
}

TEST(BackupStore, KeepsNewestPerTask) {
  BackupStore store;
  EXPECT_TRUE(store.store_frame(1, 0, 5, full(1, {1})).accepted);
  EXPECT_TRUE(store.store_frame(1, 0, 10, full(2, {2})).accepted);
  // An older save arriving late never replaces the newer state.
  EXPECT_FALSE(store.store_frame(1, 0, 7, full(3, {3})).accepted);
  const auto* entry = store.find(1, 0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->iteration, 10u);
  EXPECT_EQ(store.materialize(1, 0), (serial::Bytes{2}));
}

TEST(BackupStore, SeparatesAppsAndTasks) {
  BackupStore store;
  store.store_frame(1, 0, 5, full(1, {1}));
  store.store_frame(1, 1, 6, full(1, {2}));
  store.store_frame(2, 0, 7, full(1, {3}));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.find(1, 0)->iteration, 5u);
  EXPECT_EQ(store.find(1, 1)->iteration, 6u);
  EXPECT_EQ(store.find(2, 0)->iteration, 7u);
  EXPECT_EQ(store.find(2, 1), nullptr);
}

TEST(BackupStore, ClearAppRemovesOnlyThatApp) {
  BackupStore store;
  store.store_frame(1, 0, 5, full(1, {1}));
  store.store_frame(2, 0, 7, full(1, {3}));
  store.clear_app(1);
  EXPECT_EQ(store.find(1, 0), nullptr);
  ASSERT_NE(store.find(2, 0), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

TEST(BackupStore, BytesAccounting) {
  BackupStore store;
  store.store_frame(1, 0, 1, full(1, serial::Bytes(100, 0)));
  store.store_frame(1, 1, 1, full(1, serial::Bytes(50, 0)));
  EXPECT_EQ(store.bytes(), 150u);  // decoded states, not frame overhead
  store.store_frame(1, 0, 2, full(2, serial::Bytes(10, 0)));  // replaces
  EXPECT_EQ(store.bytes(), 60u);
}

TEST(BackupStore, SameIterationReplaces) {
  BackupStore store;
  store.store_frame(1, 0, 5, full(1, {1}));
  store.store_frame(1, 0, 5, full(2, {9}));
  EXPECT_EQ(store.materialize(1, 0), (serial::Bytes{9}));
}

}  // namespace
}  // namespace jacepp::core
