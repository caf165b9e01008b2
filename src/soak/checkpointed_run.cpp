#include "soak/checkpointed_run.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "codec/checkpoint.hpp"
#include "common/address_registry.hpp"
#include "obs/json.hpp"

namespace blackdp::soak {

namespace {

void narrate(std::ostream* log, const std::string& line) {
  if (log != nullptr) *log << "[soak] " << line << '\n';
}

std::string encodeManifestEntry(const ManifestEntry& entry) {
  std::string out = "{\"epoch\":";
  obs::appendJsonNumber(out, entry.epoch);
  out += ",\"file\":";
  obs::appendJsonString(out, entry.file);
  out += ",\"bytes\":";
  obs::appendJsonNumber(out, entry.bytes);
  out += ",\"crc32\":";
  obs::appendJsonNumber(out, entry.crc32);
  out += ",\"seed\":";
  obs::appendJsonNumber(out, entry.seed);
  out += "}";
  return out;
}

/// Atomically replaces the manifest with `entries` and opens it for
/// appending. Resuming from the parsed entries drops a torn tail, so the
/// next appended line cannot run into a half-written one.
common::Status startManifest(const std::string& checkpointDir,
                             const std::vector<ManifestEntry>& entries,
                             std::ofstream& out) {
  std::string text;
  for (const ManifestEntry& entry : entries) {
    text += encodeManifestEntry(entry);
    text += '\n';
  }
  const std::string path = manifestPath(checkpointDir);
  if (const auto wrote = codec::writeFileAtomic(
          path,
          {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
      !wrote.ok()) {
    return wrote;
  }
  out.open(path, std::ios::app);
  if (!out) return common::Error{"io", "cannot append to " + path};
  return {};
}

/// Rebuilds `world` from the newest manifest entry. The entry is verified
/// against the file (size + CRC) before the envelope's own checks run, so a
/// torn or swapped checkpoint is caught with a precise message.
std::optional<RunViolation> resumeWorld(const std::string& checkpointDir,
                                        SoakWorld& world,
                                        std::vector<ManifestEntry>& manifest,
                                        std::string& resumedPath) {
  manifest = readManifest(checkpointDir);
  if (manifest.empty()) {
    return RunViolation{0, "checkpoint-resume",
                        "no usable manifest entry in " + checkpointDir};
  }
  const ManifestEntry& entry = manifest.back();
  if (entry.seed != world.seed()) {
    return RunViolation{entry.epoch, "checkpoint-resume",
                        "manifest seed " + std::to_string(entry.seed) +
                            " != configured seed " +
                            std::to_string(world.seed())};
  }
  const std::string path = checkpointDir + "/" + entry.file;
  const auto blob = codec::readFile(path);
  if (!blob.ok()) {
    return RunViolation{entry.epoch, "checkpoint-resume",
                        path + ": " + blob.error().detail};
  }
  if (blob.value().size() != entry.bytes) {
    return RunViolation{
        entry.epoch, "checkpoint-resume",
        path + ": size " + std::to_string(blob.value().size()) +
            " != manifest bytes " + std::to_string(entry.bytes)};
  }
  if (codec::crc32(blob.value()) != entry.crc32) {
    return RunViolation{entry.epoch, "checkpoint-resume",
                        path + ": CRC mismatch vs manifest"};
  }
  if (const auto restored = world.restoreCheckpoint(blob.value());
      !restored.ok()) {
    return RunViolation{
        entry.epoch, "checkpoint-resume",
        path + ": " + restored.error().code + ": " + restored.error().detail};
  }
  resumedPath = path;
  return std::nullopt;
}

RunResult runOnce(const RunOptions& options, SoakWorld& world) {
  RunResult result;
  if (options.checkpointEvery > 0 || options.resume) {
    if (options.checkpointDir.empty()) {
      result.violations.push_back(
          {0, "checkpoint-write",
           "checkpointDir is required when checkpointing or resuming"});
      return result;
    }
    std::error_code ec;
    std::filesystem::create_directories(options.checkpointDir, ec);
    if (ec) {
      result.violations.push_back(
          {0, "checkpoint-write", options.checkpointDir + ": " + ec.message()});
      return result;
    }
  }

  std::vector<ManifestEntry> manifest;
  if (options.resume) {
    if (auto violation = resumeWorld(options.checkpointDir, world, manifest,
                                     result.lastCheckpointPath)) {
      result.violations.push_back(std::move(*violation));
      return result;
    }
    narrate(options.log, "resumed at epoch " +
                             std::to_string(world.nextEpoch()) + " from " +
                             result.lastCheckpointPath);
  }
  result.startEpoch = world.nextEpoch();

  std::ofstream manifestOut;
  if (options.checkpointEvery > 0) {
    if (const auto started =
            startManifest(options.checkpointDir, manifest, manifestOut);
        !started.ok()) {
      result.violations.push_back({result.startEpoch, "checkpoint-write",
                                   "manifest: " + started.error().detail});
      return result;
    }
  }

  const std::uint64_t target =
      options.stopAfter > 0 ? std::min(options.epochs, options.stopAfter)
                            : options.epochs;
  while (world.nextEpoch() < target) {
    const std::uint64_t epoch = world.nextEpoch();
    if (const auto ran = world.runEpoch(); !ran.ok()) {
      result.violations.push_back({epoch, ran.error().code,
                                   ran.error().detail});
      break;
    }
    std::vector<RunViolation> broken = world.invariants();
    if (!broken.empty()) {
      for (RunViolation& violation : broken) {
        violation.epoch = epoch;
        violation.detail += " (" + world.replayRecipe(epoch + 1) + ")";
        result.violations.push_back(std::move(violation));
      }
      break;  // fail fast: these are hard invariants
    }

    const std::uint64_t done = world.nextEpoch();
    if (options.checkpointEvery > 0 && done % options.checkpointEvery == 0) {
      const common::Bytes blob = world.saveCheckpoint();
      char file[32];
      std::snprintf(file, sizeof file, "ckpt-%06llu.bdpc",
                    static_cast<unsigned long long>(done));
      const ManifestEntry entry{done, file, blob.size(), codec::crc32(blob),
                                world.seed()};
      const std::string path = options.checkpointDir + "/" + entry.file;
      if (const auto wrote = codec::writeFileAtomic(path, blob); !wrote.ok()) {
        result.violations.push_back(
            {done, "checkpoint-write", path + ": " + wrote.error().detail});
        break;
      }
      // The manifest line strictly after the checkpoint file: a kill
      // between the two leaves the manifest pointing at the previous
      // complete checkpoint.
      manifestOut << encodeManifestEntry(entry) << '\n' << std::flush;
      if (!manifestOut) {
        result.violations.push_back(
            {done, "checkpoint-write", "manifest: append failed"});
        break;
      }
      result.lastCheckpointPath = path;
      narrate(options.log, "epoch " + std::to_string(done) + "/" +
                               std::to_string(options.epochs) +
                               " checkpoint " + entry.file + " (" +
                               std::to_string(entry.bytes) + " bytes)");
    } else if (done % 100 == 0) {
      narrate(options.log, "epoch " + std::to_string(done) + "/" +
                               std::to_string(options.epochs));
    }
  }

  result.endEpoch = world.nextEpoch();
  result.surfaces = world.surfaces();
  if (options.stopAfter > 0 && result.endEpoch < options.epochs &&
      result.violations.empty()) {
    narrate(options.log, "stopped after epoch " +
                             std::to_string(result.endEpoch) +
                             " (emulated kill)");
  }
  return result;
}

RunResult runChaos(const RunOptions& options, const WorldFactory& makeWorld) {
  RunResult result;
  if (options.epochs < 2) {
    result.violations.push_back(
        {0, "kill-resume-identity", "chaos mode needs at least 2 epochs"});
    return result;
  }
  if (options.checkpointDir.empty()) {
    result.violations.push_back(
        {0, "kill-resume-identity",
         "checkpointDir is required for chaos mode"});
    return result;
  }

  // Uninterrupted reference run: its surfaces are the ground truth every
  // kill/resume cycle must reproduce byte for byte.
  RunOptions reference = options;
  reference.chaosKills = 0;
  reference.checkpointEvery = 0;
  reference.checkpointDir.clear();
  reference.resume = false;
  reference.stopAfter = 0;
  std::uint64_t seed = 0;
  std::string recipe;
  {
    const std::unique_ptr<SoakWorld> world = makeWorld();
    seed = world->seed();
    recipe = world->replayRecipe(options.epochs);
    result = runOnce(reference, *world);
  }
  if (!result.passed()) return result;

  const std::uint64_t every =
      options.checkpointEvery > 0 ? options.checkpointEvery : 1;
  if (options.epochs <= every) {
    result.violations.push_back(
        {0, "kill-resume-identity",
         "chaos mode needs epochs > checkpointEvery so a checkpoint exists "
         "before every kill"});
    return result;
  }
  for (std::uint32_t kill = 0; kill < options.chaosKills; ++kill) {
    // Hashed kill epoch in [every, epochs-1]: at least one checkpoint lands
    // before the kill (the kill may still fall between checkpoints, so the
    // resume re-runs the uncheckpointed tail) and at least one epoch runs
    // after the resume.
    const std::uint64_t h =
        common::mixAddress(seed ^ ((kill + 1) * 0x9e3779b97f4a7c15ull));
    const std::uint64_t killEpoch = every + h % (options.epochs - every);

    RunOptions cut = options;
    cut.chaosKills = 0;
    cut.checkpointEvery = every;
    cut.checkpointDir =
        options.checkpointDir + "/kill-" + std::to_string(kill);
    cut.resume = false;
    cut.stopAfter = killEpoch;
    narrate(options.log, "chaos kill " + std::to_string(kill + 1) + "/" +
                             std::to_string(options.chaosKills) +
                             " at epoch " + std::to_string(killEpoch));
    const RunResult interrupted = runOnce(cut, *makeWorld());
    if (!interrupted.passed()) {
      result.violations = interrupted.violations;
      return result;
    }

    RunOptions resumed = cut;
    resumed.resume = true;
    resumed.stopAfter = 0;
    const RunResult continued = runOnce(resumed, *makeWorld());
    if (!continued.passed()) {
      result.violations = continued.violations;
      return result;
    }
    if (continued.surfaces != result.surfaces) {
      result.violations.push_back(
          {killEpoch, "kill-resume-identity",
           "resumed surfaces differ from the uninterrupted run (" + recipe +
               " --checkpoint-every " + std::to_string(every) +
               " --stop-after " + std::to_string(killEpoch) +
               ", then --resume)"});
      return result;
    }
  }
  return result;
}

}  // namespace

std::string manifestPath(const std::string& checkpointDir) {
  return checkpointDir + "/manifest.jsonl";
}

std::vector<ManifestEntry> readManifest(const std::string& checkpointDir) {
  std::vector<ManifestEntry> entries;
  const auto data = codec::readFile(manifestPath(checkpointDir));
  if (!data.ok()) return entries;
  std::string_view text{reinterpret_cast<const char*>(data.value().data()),
                        data.value().size()};
  while (!text.empty()) {
    const std::size_t newline = text.find('\n');
    const std::string_view line = text.substr(0, newline);
    text = newline == std::string_view::npos ? std::string_view{}
                                             : text.substr(newline + 1);
    if (line.empty()) continue;
    const auto object = obs::FlatJsonObject::parse(line);
    if (!object) continue;  // torn trailing line from a kill mid-write
    const auto epoch = object->u64("epoch");
    const auto file = object->string("file");
    const auto bytes = object->u64("bytes");
    const auto crc = object->u64("crc32");
    const auto seed = object->u64("seed");
    if (!epoch || !file || !bytes || !crc || !seed) continue;
    entries.push_back({*epoch, std::string{*file}, *bytes, *crc, *seed});
  }
  return entries;
}

RunResult runCheckpointed(const RunOptions& options,
                          const WorldFactory& makeWorld) {
  if (options.chaosKills > 0) return runChaos(options, makeWorld);
  return runOnce(options, *makeWorld());
}

}  // namespace blackdp::soak
