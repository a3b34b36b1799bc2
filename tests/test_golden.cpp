// Golden report digests: one recorded reference per preset.
//
// tests/golden/<preset>.fnv1a holds the FNV-1a digest (sim/fnv1a.hpp,
// the hash of the CDG certificate) of the preset's deterministic report
// at one shard: SweepReport::write_json(w, false), the bytes
// `mango_sweep --preset <preset> --stable --out r.json` writes, without
// the final newline. Any change to the model, the kernel or the report
// schema that moves one byte of a preset report fails here. Updating a
// digest is a declared, reviewed change: a CHANGES.md entry that says
// which preset moved and why.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "noc/network/report.hpp"
#include "sim/fnv1a.hpp"

namespace mango::exp {
namespace {

namespace fs = std::filesystem;

const fs::path kGoldenDir = MANGO_GOLDEN_DIR;
constexpr const char* kSuffix = ".fnv1a";

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(GoldenDigests, EveryPresetHasExactlyOneDigestFile) {
  std::set<std::string> presets;
  for (const std::string& p : preset_names()) presets.insert(p);
  std::set<std::string> recorded;
  for (const fs::directory_entry& e : fs::directory_iterator(kGoldenDir)) {
    const std::string file = e.path().filename().string();
    ASSERT_EQ(e.path().extension(), kSuffix)
        << "unexpected file in " << kGoldenDir << ": " << file;
    const std::string preset = e.path().stem().string();
    EXPECT_TRUE(presets.count(preset) == 1)
        << file << " names no preset (orphaned digest)";
    recorded.insert(preset);
  }
  for (const std::string& p : presets) {
    EXPECT_TRUE(recorded.count(p) == 1) << "preset " << p << " has no "
                                        << (kGoldenDir / (p + kSuffix));
  }
}

class GoldenReport : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenReport, MatchesRecordedDigest) {
  const std::string& preset = GetParam();
  const fs::path file = kGoldenDir / (preset + kSuffix);
  std::ifstream in(file);
  ASSERT_TRUE(in.good()) << "cannot read " << file;
  std::string recorded;
  in >> recorded;

  const std::optional<SweepGrid> grid = find_preset(preset);
  ASSERT_TRUE(grid.has_value());
  ASSERT_EQ(grid->base.shards, 1u) << "digests are recorded at one shard";
  // Jobs never change report bytes; use every core.
  const SweepReport report = SweepRunner().run(grid->expand(), /*jobs=*/0);
  std::string json;
  noc::JsonWriter w(&json);
  report.write_json(w, /*include_timing=*/false);
  const std::string digest = hex(sim::fnv1a_bytes(json));
  EXPECT_EQ(digest, recorded)
      << "preset " << preset << " report changed (" << report.failed()
      << " failed scenarios); new digest " << digest
      << ". If the change is intended, write it to " << file
      << " and declare it in CHANGES.md.";
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Presets, GoldenReport,
                         ::testing::ValuesIn(preset_names()), param_name);

}  // namespace
}  // namespace mango::exp
