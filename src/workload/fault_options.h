#ifndef BESTPEER_WORKLOAD_FAULT_OPTIONS_H_
#define BESTPEER_WORKLOAD_FAULT_OPTIONS_H_

#include <cstdint>

#include "sim/fault.h"
#include "sim/simulator.h"
#include "util/metrics.h"

namespace bestpeer::workload {

/// Message-loss injection, shared by every workload driver
/// (ExperimentOptions, ChurnOptions, the scenario engine's ScenarioSpec).
/// The recovery side (query deadlines, LIGLO retries, peer eviction,
/// agent-table expiry) is node configuration and lives in
/// core::BestPeerConfig. The default attaches no injector, so schedules
/// stay bit-identical to a fault-free build.
struct FaultRecoveryOptions {
  /// Probability that any message is lost in flight (fault injector;
  /// seeded from the run seed, so runs stay deterministic).
  double message_loss = 0.0;

  /// Attaches the simulator's fault injector when message_loss > 0. Must
  /// precede SimNetwork construction so the network binds to the
  /// injector; zero loss attaches nothing, which is what keeps fault-free
  /// runs bit-identical. The injector's seed is derived from the run seed
  /// with a fixed tweak so the fault stream never aliases a workload rng.
  void EnableOn(sim::Simulator* sim, uint64_t seed,
                metrics::Registry* metrics) const {
    if (message_loss <= 0) return;
    sim::FaultOptions fo;
    fo.seed = seed ^ 0xFA17;
    fo.message_loss = message_loss;
    fo.metrics = metrics;
    sim->EnableFaults(fo);
  }
};

}  // namespace bestpeer::workload

#endif  // BESTPEER_WORKLOAD_FAULT_OPTIONS_H_
