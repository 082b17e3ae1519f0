#include "gpu/config_file.hh"

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "check/fault.hh"
#include "check/violation.hh"

namespace getm {

namespace {

std::string
trim(const std::string &text)
{
    const auto begin = text.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const auto end = text.find_last_not_of(" \t\r");
    return text.substr(begin, end - begin + 1);
}

/** How a numeric key's file value maps onto its GpuConfig field. */
enum class Encoding
{
    Plain,     ///< The value itself.
    Kilobytes, ///< KiB in the file, bytes in the field.
    ZeroIsMax, ///< 0 in the file = the field's maximum (unlimited/off).
};

/**
 * The one table of numeric keys, in file and provenance order, shared
 * by applyKey() and configProvenance(). trace_tx and watchdog_cycles
 * are observe-only: out of provenance and spec hashes.
 */
template <class Config, class Visit>
void
forEachNumericKey(Config &cfg, Visit &&visit)
{
    auto key = [&visit](const char *name, auto &field,
                        Encoding encoding = Encoding::Plain,
                        bool provenance = true) {
        visit(name, field, encoding, provenance);
    };
    key("cores", cfg.numCores);
    key("partitions", cfg.numPartitions);
    key("warps_per_core", cfg.core.maxWarps);
    key("tx_warp_limit", cfg.core.txWarpLimit, Encoding::ZeroIsMax);
    key("issue_width", cfg.core.issueWidth);
    key("l1_kb", cfg.core.l1Bytes, Encoding::Kilobytes);
    key("llc_kb_per_partition", cfg.llcBytesPerPartition,
        Encoding::Kilobytes);
    key("llc_latency", cfg.llcLatency);
    key("line_bytes", cfg.lineBytes);
    key("xbar_latency", cfg.xbar.latency);
    key("xbar_flit_bytes", cfg.xbar.flitBytes);
    key("dram_latency", cfg.dram.accessLatency);
    key("dram_row_hit_latency", cfg.dram.rowHitLatency);
    key("dram_banks", cfg.dram.numBanks);
    key("getm_granule", cfg.getmGranule);
    key("getm_precise_entries", cfg.getmPreciseEntriesTotal);
    key("getm_bloom_entries", cfg.getmBloomEntriesTotal);
    key("getm_max_registers", cfg.getmUseMaxRegisters);
    key("getm_stall_lines", cfg.getmStall.lines);
    key("getm_stall_entries", cfg.getmStall.entriesPerLine);
    key("wtm_tcd_entries", cfg.wtm.tcdEntries);
    key("rollover_threshold", cfg.rolloverThreshold, Encoding::ZeroIsMax);
    key("sample_interval", cfg.sampleInterval);
    key("trace_tx", cfg.traceTx, Encoding::Plain, false);
    key("watchdog_cycles", cfg.watchdogCycles, Encoding::Plain, false);
    key("hot_addrs", cfg.hotAddrTopN);
    key("seed", cfg.seed);
}

bool
applyKey(GpuConfig &cfg, const std::string &key, std::uint64_t value)
{
    bool found = false;
    forEachNumericKey(cfg, [&](const char *name, auto &field,
                               Encoding encoding, bool) {
        using Field = std::remove_reference_t<decltype(field)>;
        if (found || key != name)
            return;
        found = true;
        if (encoding == Encoding::Kilobytes)
            value *= 1024;
        field = encoding == Encoding::ZeroIsMax && value == 0
                    ? std::numeric_limits<Field>::max()
                    : static_cast<Field>(value);
    });
    return found;
}

/**
 * Keys whose values are words, tried before the numeric parser. The
 * checker/injection/timeout keys are deliberately absent from
 * configProvenance(): enabling validation or a safety net must not
 * change a run's reported configuration or sweep spec hashes
 * (watchdog_cycles and trace_tx, handled by the numeric parser, are
 * excluded for the same reason: both are observe-only).
 */
bool
applyStringKey(GpuConfig &cfg, const std::string &key,
               const std::string &value_text, bool &handled)
{
    handled = true;
    if (key == "check") {
        CheckLevel level;
        if (!parseCheckLevel(value_text, level))
            return false;
        cfg.checkLevel = static_cast<unsigned>(level);
    } else if (key == "inject") {
        FaultKind kind;
        if (!parseFaultKind(value_text, kind))
            return false;
        cfg.injectFault = static_cast<unsigned>(kind);
    } else if (key == "inject_prob") {
        double prob = 0;
        if (!parseConfigDouble(value_text, prob) || prob < 0.0 ||
            prob > 1.0)
            return false;
        cfg.injectProb = prob;
    } else if (key == "timeout_sec") {
        double secs = 0;
        if (!parseConfigDouble(value_text, secs) || secs < 0.0)
            return false;
        cfg.timeoutSec = secs;
    } else {
        handled = false;
    }
    return true;
}

} // namespace

bool
parseConfigUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 0);
    return end && *end == '\0';
}

bool
parseConfigDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end && *end == '\0';
}

bool
forEachConfigLine(
    const std::string &text, std::string &error,
    const std::function<bool(const std::string &, const std::string &,
                             const std::string &)> &visit)
{
    std::istringstream in(text);
    std::string line;
    for (unsigned line_no = 1; std::getline(in, line); ++line_no) {
        line = trim(line.substr(0, line.find('#')));
        if (line.empty())
            continue;
        const std::string at = "line " + std::to_string(line_no) + ": ";
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            error = at + "expected 'key = value'";
            return false;
        }
        if (!visit(at, trim(line.substr(0, eq)), trim(line.substr(eq + 1))))
            return false;
    }
    return true;
}

bool
applyConfigText(const std::string &text, GpuConfig &cfg,
                std::string &error)
{
    const auto apply = [&](const std::string &at, const std::string &key,
                           const std::string &value_text) {
        bool handled = false;
        if (!applyStringKey(cfg, key, value_text, handled)) {
            error = at + "bad value for '" + key + "'";
            return false;
        }
        if (handled)
            return true;
        std::uint64_t value = 0;
        if (!parseConfigUint(value_text, value)) {
            error = at + "bad value for '" + key + "'";
            return false;
        }
        if (!applyKey(cfg, key, value)) {
            error = at + "unknown key '" + key + "'";
            return false;
        }
        return true;
    };
    return forEachConfigLine(text, error, apply) &&
           validateGpuConfig(cfg, error);
}

bool
validateGpuConfig(const GpuConfig &cfg, std::string &error)
{
    const auto reject = [&error](const std::string &why) {
        error = "invalid config: " + why;
        return false;
    };
    if (cfg.numCores == 0)
        return reject("cores must be nonzero");
    if (cfg.numPartitions == 0)
        return reject("partitions must be nonzero");
    if (cfg.core.maxWarps == 0)
        return reject("warps_per_core must be nonzero");
    if (cfg.core.maxWarps > maxWarpSlots)
        return reject("warps_per_core must be at most " +
                      std::to_string(maxWarpSlots));
    if (cfg.core.issueWidth == 0)
        return reject("issue_width must be nonzero");
    if (cfg.lineBytes == 0)
        return reject("line_bytes must be nonzero");
    if (cfg.getmGranule == 0)
        return reject("getm_granule must be nonzero");
    if (cfg.core.backoff.baseWindow == 0)
        return reject("backoff base window must be nonzero");
    if (cfg.core.backoff.maxWindow < cfg.core.backoff.baseWindow)
        return reject("backoff max window smaller than base window");
    if (cfg.injectProb < 0.0 || cfg.injectProb > 1.0)
        return reject("inject_prob must be within [0, 1]");
    if (cfg.timeoutSec < 0.0)
        return reject("timeout_sec must be non-negative");
    return true;
}

bool
loadConfigFile(const std::string &path, GpuConfig &cfg,
               std::string &error)
{
    std::ifstream file(path);
    if (!file) {
        error = "cannot open " + path;
        return false;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    return applyConfigText(buffer.str(), cfg, error);
}

std::vector<std::pair<std::string, std::string>>
configProvenance(const GpuConfig &cfg)
{
    std::vector<std::pair<std::string, std::string>> out;
    out.emplace_back("protocol", protocolName(cfg.protocol));
    forEachNumericKey(cfg, [&out](const char *name, const auto &field,
                                  Encoding encoding, bool provenance) {
        using Field = std::remove_cvref_t<decltype(field)>;
        std::uint64_t value = field;
        if (encoding == Encoding::Kilobytes)
            value /= 1024;
        else if (encoding == Encoding::ZeroIsMax &&
                 field == std::numeric_limits<Field>::max())
            value = 0;
        if (provenance)
            out.emplace_back(name, std::to_string(value));
    });
    return out;
}

} // namespace getm
