/**
 * @file
 * Plain-text configuration files for GpuConfig.
 *
 * A config file is a list of `key = value` lines (with `#` comments),
 * mirroring how GPGPU-Sim experiments are driven by gpgpusim.config
 * files. Unknown keys are an error -- silently ignored typos are how
 * simulation studies go wrong. Supported keys cover everything the
 * evaluation sweeps:
 *
 *     # Table II baseline, GETM at 64 B granularity
 *     cores = 15
 *     partitions = 6
 *     warps_per_core = 48           # 1..64 (one bit per slot)
 *     tx_warp_limit = 8
 *     llc_kb_per_partition = 128
 *     llc_latency = 330
 *     getm_granule = 64
 *     getm_precise_entries = 4096
 *     getm_bloom_entries = 1024
 *     getm_max_registers = 0
 *     wtm_tcd_entries = 2048
 *     rollover_threshold = 0        # 0 = disabled
 *     seed = 7
 */

#ifndef GETM_GPU_CONFIG_FILE_HH
#define GETM_GPU_CONFIG_FILE_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gpu/gpu_config.hh"

namespace getm {

/** Parse all of @p text as an unsigned integer (decimal, 0x hex or
 *  0 octal) or as a double; false when empty or on trailing text. */
bool parseConfigUint(const std::string &text, std::uint64_t &out);
bool parseConfigDouble(const std::string &text, double &out);

/** Walk config (and sweep-manifest) @p text: skip `#` comments and
 *  blank lines, and call @p visit(at, key, value) for each `key =
 *  value` line, both sides trimmed, @p at its "line N: " error prefix.
 *  @return false with @p error set on a line without '=', or when
 *  @p visit does. */
bool forEachConfigLine(
    const std::string &text, std::string &error,
    const std::function<bool(const std::string &, const std::string &,
                             const std::string &)> &visit);

/**
 * Apply `key = value` lines from @p text onto @p cfg.
 * @param error Filled with a diagnostic on failure.
 * @return false on parse error or unknown key.
 */
bool applyConfigText(const std::string &text, GpuConfig &cfg,
                     std::string &error);

/** Load @p path and apply it onto @p cfg. */
bool loadConfigFile(const std::string &path, GpuConfig &cfg,
                    std::string &error);

/**
 * Sanity-check @p cfg for values that would misbehave downstream
 * (zero core/partition/warp counts, more than 64 warps per core, zero
 * line/granule sizes, a degenerate Backoff::Config). The warp cap is
 * maxWarpSlots: the SIMT scheduler keeps one 64-bit slot mask per warp
 * state. Called at the end of applyConfigText() so bad files are
 * rejected at load time, and by the GpuSystem constructor (which turns
 * a failure into SimError CONFIG) so programmatic configs get the same
 * screening.
 *
 * @return false with @p error describing the first offending value.
 */
bool validateGpuConfig(const GpuConfig &cfg, std::string &error);

/**
 * Flatten @p cfg into ordered key/value pairs using the same key names
 * the config-file parser accepts (plus the protocol). This is the
 * config-provenance block of the exported metrics document: feeding the
 * values back through a config file reproduces the run.
 */
std::vector<std::pair<std::string, std::string>>
configProvenance(const GpuConfig &cfg);

} // namespace getm

#endif // GETM_GPU_CONFIG_FILE_HH
