// The sharded megacity corridor as a soak world (see
// soak/checkpointed_run.hpp for the driver, the checkpoint directory, the
// manifest and chaos mode).
//
// Its surfaces are the merged metrics JSON and the canonical per-segment
// log, both partition-invariant, rendered after CorridorWorld::finish().
// Every epoch boundary runs the corridor hard invariants:
//   honest-isolation  every isolated address belongs to a scripted attacker
//                     (vehicleSpec(seed, id).attacker): the detector never
//                     convicts an honest vehicle;
//   tables-drained    every live detection session respects its budgets
//                     (probesSent <= maxProbes, forwards <= maxForwards,
//                     violations < probesToConfirm) and the total session
//                     count never exceeds the fleet.
#pragma once

#include <cstdint>

#include "scenario/corridor_world.hpp"
#include "sim/thread_pool.hpp"
#include "soak/checkpointed_run.hpp"

namespace blackdp::soak {

/// Builds fresh corridor worlds on `pool`, which must outlive every run.
[[nodiscard]] WorldFactory corridorWorlds(
    const scenario::CorridorConfig& config, std::uint32_t shards,
    sim::ThreadPool& pool);

}  // namespace blackdp::soak
