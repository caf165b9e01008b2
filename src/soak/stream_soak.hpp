// The stream detector service as a soak world (see soak/checkpointed_run.hpp
// for the driver). Its hard invariant is the memory watermark
// (StreamWorld::checkInvariants): every detector-service table stays under
// its cap however many epochs stream through.
//
// With a trace path, every injected d_req spec is recorded as JSONL for
// tools/replay_serve. The first epoch a world runs rewrites the trace to the
// lines of the epochs it already holds (none when fresh), so a resumed run
// does not record the epochs between its checkpoint and the kill twice. The
// trace is flushed before every checkpoint.
#pragma once

#include <string>

#include "scenario/stream_world.hpp"
#include "soak/checkpointed_run.hpp"

namespace blackdp::soak {

/// Builds fresh stream worlds; `tracePath` = "" records no trace.
[[nodiscard]] WorldFactory streamWorlds(const scenario::StreamConfig& config,
                                        const std::string& tracePath = {});

}  // namespace blackdp::soak
