// One checkpointed-run driver for every long-lived soak world.
//
// A soak world (SoakWorld below) advances in whole epochs and serializes
// itself at epoch boundaries; the stream detector service
// (soak/stream_soak.hpp) and the sharded megacity corridor
// (soak/megacity_soak.hpp) are the two. runCheckpointed owns what they
// share: the checkpoint directory and its manifest, resume from the newest
// entry (seed, size and CRC re-verified before the envelope's own checks),
// the hard invariants at every epoch boundary (fail fast, with the replay
// recipe in the detail), the emulated kill, and chaos mode. Both worlds
// restore byte-identically, so a killed-and-resumed run's surfaces and final
// checkpoint equal an uninterrupted run's (CI pins both).
//
// Layout of a checkpoint directory:
//
//   ckpt-000010.bdpc     checkpoint envelope at epoch boundary 10
//   ckpt-000020.bdpc     ...
//   manifest.jsonl       one line per checkpoint:
//                        {"epoch":10,"file":"ckpt-000010.bdpc",
//                         "bytes":N,"crc32":C,"seed":S}
//
// Crash-consistency contract: the manifest is append-only. Each checkpoint
// file is written atomically (temp + rename) BEFORE its manifest line is
// appended and flushed, so every complete line points at a complete
// checkpoint; a kill mid-append leaves at worst a torn last line, which
// readManifest skips. A fresh run starts an empty manifest. A resume first
// rewrites the manifest atomically to its parsed entries, dropping a torn
// tail, and only then appends. scripts/validate_bench_json.py re-verifies
// every entry (file exists, size and binascii CRC match) offline.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace blackdp::soak {

/// The outputs a run is judged by; kill/resume must reproduce them exactly.
struct Surfaces {
  std::string metricsJson;   ///< the world's metrics JSON document
  std::string canonicalLog;  ///< per-segment control-plane log ("" if none)

  friend bool operator==(const Surfaces&, const Surfaces&) = default;
};

/// One soak failure, replayable from (invariant, epoch, detail).
struct RunViolation {
  std::uint64_t epoch{0};
  std::string invariant;  ///< a world invariant, "checkpoint-write",
                          ///< "checkpoint-resume", "kill-resume-identity",
                          ///< or a runEpoch error code such as "trace-io"
  std::string detail;
};

/// A world the driver can run, kill and resume. It must be deterministic:
/// a fresh world restored from a checkpoint continues exactly like the
/// world that wrote it.
class SoakWorld {
 public:
  SoakWorld() = default;
  virtual ~SoakWorld() = default;
  SoakWorld(const SoakWorld&) = delete;
  SoakWorld& operator=(const SoakWorld&) = delete;
  SoakWorld(SoakWorld&&) = delete;
  SoakWorld& operator=(SoakWorld&&) = delete;

  /// Epochs completed so far (== the epoch runEpoch runs next).
  [[nodiscard]] virtual std::uint64_t nextEpoch() const = 0;
  /// Runs one epoch. An error ends the run as a violation named after its
  /// code.
  [[nodiscard]] virtual common::Status runEpoch() = 0;
  /// The whole world at the current epoch boundary as a BDPC envelope.
  [[nodiscard]] virtual common::Bytes saveCheckpoint() = 0;
  /// Restores a saveCheckpoint blob into this freshly built world; a
  /// typed error ("config-mismatch", "bad-crc", ...) on failure.
  [[nodiscard]] virtual common::Status restoreCheckpoint(
      std::span<const std::uint8_t> blob) = 0;
  /// The final surfaces; called once, after the last epoch.
  [[nodiscard]] virtual Surfaces surfaces() = 0;
  /// Hard invariants at the current epoch boundary (empty = healthy). The
  /// driver fills in each violation's epoch and appends the replay recipe.
  [[nodiscard]] virtual std::vector<RunViolation> invariants() const = 0;
  /// Recorded in, and checked against, every manifest entry.
  [[nodiscard]] virtual std::uint64_t seed() const = 0;
  /// "replay: soak_run ..." rebuilding this world and running `epochs`.
  [[nodiscard]] virtual std::string replayRecipe(
      std::uint64_t epochs) const = 0;
};

/// Builds a fresh world; chaos mode builds one per run it makes.
using WorldFactory = std::function<std::unique_ptr<SoakWorld>()>;

struct RunOptions {
  /// Total epochs the run should reach (absolute: a resumed run counts the
  /// epochs already in its checkpoint towards this target).
  std::uint64_t epochs{40};
  /// Checkpoint every K epoch boundaries (0 = never checkpoint).
  std::uint64_t checkpointEvery{0};
  /// Directory for checkpoints + manifest. Required when checkpointEvery > 0,
  /// resume or chaosKills is set; created if missing.
  std::string checkpointDir{};
  /// Rebuild from the newest manifest entry in checkpointDir and continue.
  bool resume{false};
  /// Emulated kill: exit cleanly once the world holds this many epochs, an
  /// absolute count like `epochs` (0 = run to `epochs`). Checkpoints
  /// written up to that point stay valid.
  std::uint64_t stopAfter{0};
  /// Chaos mode: run an uninterrupted reference, then this many
  /// kill-at-a-hashed-epoch + resume cycles (each in its own kill-N
  /// subdirectory of checkpointDir), byte-comparing the surfaces each time.
  std::uint32_t chaosKills{0};
  /// Progress narration (nullptr = silent).
  std::ostream* log{nullptr};
};

struct RunResult {
  std::uint64_t startEpoch{0};  ///< 0, or the resumed checkpoint's epoch
  std::uint64_t endEpoch{0};    ///< epochs held by the world at exit
  Surfaces surfaces;
  std::string lastCheckpointPath;
  std::vector<RunViolation> violations;

  [[nodiscard]] bool passed() const { return violations.empty(); }
};

[[nodiscard]] RunResult runCheckpointed(const RunOptions& options,
                                        const WorldFactory& makeWorld);

/// One manifest.jsonl line, parsed.
struct ManifestEntry {
  std::uint64_t epoch{0};
  std::string file;  ///< relative to the checkpoint directory
  std::uint64_t bytes{0};
  std::uint64_t crc32{0};
  std::uint64_t seed{0};
};

[[nodiscard]] std::string manifestPath(const std::string& checkpointDir);
/// Parses the manifest, skipping malformed lines (a torn trailing line from
/// a kill mid-append is expected and harmless). Empty when absent.
[[nodiscard]] std::vector<ManifestEntry> readManifest(
    const std::string& checkpointDir);

}  // namespace blackdp::soak
