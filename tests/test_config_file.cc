/**
 * @file
 * Tests for the key=value configuration-file parser.
 */

#include <gtest/gtest.h>

#include "gpu/config_file.hh"

namespace getm {
namespace {

TEST(ConfigFile, AppliesKnownKeys)
{
    GpuConfig cfg = GpuConfig::gtx480();
    std::string error;
    const bool ok = applyConfigText(
        "# comment\n"
        "cores = 8\n"
        "partitions=4   # trailing comment\n"
        "getm_granule = 64\n"
        "tx_warp_limit = 0\n"
        "llc_kb_per_partition = 256\n"
        "seed = 0x10\n",
        cfg, error);
    ASSERT_TRUE(ok) << error;
    EXPECT_EQ(cfg.numCores, 8u);
    EXPECT_EQ(cfg.numPartitions, 4u);
    EXPECT_EQ(cfg.getmGranule, 64u);
    EXPECT_EQ(cfg.core.txWarpLimit, 0xffffffffu); // 0 = unlimited
    EXPECT_EQ(cfg.llcBytesPerPartition, 256u * 1024);
    EXPECT_EQ(cfg.seed, 16u);
}

TEST(ConfigFile, RejectsUnknownKey)
{
    GpuConfig cfg;
    std::string error;
    EXPECT_FALSE(applyConfigText("coers = 8\n", cfg, error));
    EXPECT_NE(error.find("unknown key"), std::string::npos);
    EXPECT_NE(error.find("coers"), std::string::npos);
}

TEST(ConfigFile, RejectsMalformedLines)
{
    GpuConfig cfg;
    std::string error;
    EXPECT_FALSE(applyConfigText("cores\n", cfg, error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
    EXPECT_FALSE(applyConfigText("cores = twelve\n", cfg, error));
}

TEST(ConfigFile, EmptyAndCommentOnlyIsFine)
{
    GpuConfig cfg;
    std::string error;
    EXPECT_TRUE(applyConfigText("\n  \n# nothing\n", cfg, error));
}

TEST(ConfigFile, RolloverZeroDisables)
{
    GpuConfig cfg;
    std::string error;
    ASSERT_TRUE(applyConfigText("rollover_threshold = 0\n", cfg, error));
    EXPECT_EQ(cfg.rolloverThreshold, ~static_cast<LogicalTs>(0));
    ASSERT_TRUE(applyConfigText("rollover_threshold = 100\n", cfg,
                                error));
    EXPECT_EQ(cfg.rolloverThreshold, 100u);
}

TEST(ConfigFile, WarpsPerCoreCappedAtSixtyFour)
{
    // The SIMT scheduler keeps one 64-bit slot mask per warp state.
    GpuConfig cfg;
    std::string error;
    EXPECT_TRUE(applyConfigText("warps_per_core = 64\n", cfg, error))
        << error;
    EXPECT_EQ(cfg.core.maxWarps, 64u);
    EXPECT_FALSE(applyConfigText("warps_per_core = 65\n", cfg, error));
    EXPECT_NE(error.find("warps_per_core must be at most 64"),
              std::string::npos)
        << error;

    // Programmatic configs get the same screening.
    GpuConfig direct = GpuConfig::gtx480();
    direct.core.maxWarps = 96;
    EXPECT_FALSE(validateGpuConfig(direct, error));
    EXPECT_NE(error.find("invalid config"), std::string::npos) << error;
}

TEST(ConfigFile, MissingFileReportsError)
{
    GpuConfig cfg;
    std::string error;
    EXPECT_FALSE(loadConfigFile("/nonexistent/x.cfg", cfg, error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

} // namespace
} // namespace getm
