#include "sweep/manifest.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "gpu/config_file.hh"

namespace getm {

std::uint64_t
fnv1a64(std::string_view text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char ch : text) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

namespace {

/** Split on commas and/or whitespace; never returns empty tokens. */
std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::string token;
    for (const char ch : text + ",") {
        if (ch == ',' || ch == ' ' || ch == '\t') {
            if (!token.empty())
                out.push_back(token);
            token.clear();
        } else {
            token += ch;
        }
    }
    return out;
}

/** Is @p key a GpuConfig config-file key? Probe a scratch config. */
bool
isConfigKey(const std::string &key, const std::string &value)
{
    GpuConfig scratch;
    std::string ignored;
    return applyConfigText(key + " = " + value, scratch, ignored);
}

} // namespace

void
SweepPoint::resolve(std::optional<std::uint64_t> concurrency,
                    bool default_sampler)
{
    config.protocol = protocol;
    config.seed = seed;
    if (!concurrency)
        config.core.txWarpLimit = optimalConcurrency(bench, protocol);
    else
        config.core.txWarpLimit = *concurrency == 0
                                      ? 0xffffffffu
                                      : static_cast<unsigned>(*concurrency);
    // A metrics document without time-series is half a metrics
    // document: default the sampler on unless the caller took explicit
    // control of the interval.
    if (default_sampler && config.sampleInterval == 0)
        config.sampleInterval = 512;
    id = bench.token() + "+" + protocolName(protocol);
}

std::uint64_t
SweepPoint::specHash() const
{
    std::string spec = "getm-sweep-point v1\n";
    spec += "bench=" + bench.token() + "\n";
    // Parameter-bearing families fold their *resolved* parameters in
    // (defaults applied), so editing a registry default invalidates
    // exactly the points it affects. Parameter-free benches contribute
    // no lines here, keeping every pre-registry hash byte-identical.
    for (const auto &[key, value] : resolvedParams(bench))
        spec += "bench." + key + "=" + jsonNumber(value) + "\n";
    spec += "scale=" + jsonNumber(scale) + "\n";
    spec += "max_cycles=" + jsonNumber(maxCycles) + "\n";
    // configProvenance covers protocol, seed, tx_warp_limit and every
    // other knob that changes simulated behaviour.
    for (const auto &[key, value] : configProvenance(config))
        spec += key + "=" + value + "\n";
    return fnv1a64(spec);
}

std::string
SweepPoint::specHashHex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(specHash()));
    return buf;
}

const SweepManifest::Axis *
SweepManifest::findAxis(const std::string &key) const
{
    for (const Axis &axis : axes)
        if (axis.key == key)
            return &axis;
    return nullptr;
}

bool
SweepManifest::parse(const std::string &text,
                     const std::string &manifest_dir, std::string &error)
{
    sweepName.clear();
    baseConfigPath.clear();
    axes.clear();

    const auto parse_line = [&](const std::string &at,
                                const std::string &key,
                                const std::string &value_text) {
        if (value_text.empty()) {
            error = at + "empty value for '" + key + "'";
            return false;
        }

        if (key == "name") {
            sweepName = value_text;
            return true;
        }
        if (key == "config") {
            baseConfigPath =
                manifest_dir.empty() ||
                        std::filesystem::path(value_text).is_absolute()
                    ? value_text
                    : manifest_dir + "/" + value_text;
            return true;
        }
        if (key == "max_cycles") {
            if (!parseConfigUint(value_text, maxCycles)) {
                error = at + "bad max_cycles";
                return false;
            }
            return true;
        }
        if (key == "retries") {
            std::uint64_t value = 0;
            if (!parseConfigUint(value_text, value) || value > 16) {
                error = at + "bad retries (0..16)";
                return false;
            }
            retries = static_cast<unsigned>(value);
            return true;
        }

        if (findAxis(key)) {
            error = at + "duplicate axis '" + key + "'";
            return false;
        }

        Axis axis;
        axis.key = key;
        std::vector<std::string> tokens = splitList(value_text);
        for (const std::string &token : tokens) {
            if (key == "bench") {
                if (token == "all") {
                    // The paper's suite; OLTP benches are named
                    // explicitly (workloads/registry.hh).
                    for (const BenchId id : allBenchIds())
                        axis.values.push_back(benchName(id));
                    continue;
                }
                WorkloadSpec spec;
                std::string spec_error;
                if (!parseWorkloadSpec(token, spec, spec_error)) {
                    error = at + spec_error;
                    return false;
                }
                axis.values.push_back(spec.token());
            } else if (key == "protocol") {
                ProtocolKind protocol;
                if (!parseProtocolName(token, protocol)) {
                    error = at + "unknown protocol '" + token + "'";
                    return false;
                }
                axis.values.push_back(protocolName(protocol));
            } else if (key == "scale") {
                double scale;
                if (!parseConfigDouble(token, scale) || scale <= 0) {
                    error = at + "bad scale '" + token + "'";
                    return false;
                }
                axis.values.push_back(jsonNumber(scale));
            } else if (key == "seed") {
                std::uint64_t seed;
                if (!parseConfigUint(token, seed)) {
                    error = at + "bad seed '" + token + "'";
                    return false;
                }
                axis.values.push_back(jsonNumber(seed));
            } else if (key == "concurrency") {
                std::uint64_t limit;
                if (token != "opt" && !parseConfigUint(token, limit)) {
                    error = at + "bad concurrency '" + token + "'";
                    return false;
                }
                axis.values.push_back(token);
            } else if (isConfigKey(key, token)) {
                axis.values.push_back(token);
            } else {
                error = at + "unknown key '" + key +
                        "' (or bad value '" + token + "')";
                return false;
            }
        }
        if (axis.values.empty()) {
            error = at + "axis '" + key + "' has no values";
            return false;
        }
        axes.push_back(std::move(axis));
        return true;
    };
    if (!forEachConfigLine(text, error, parse_line))
        return false;

    if (sweepName.empty()) {
        error = "manifest lacks 'name ='";
        return false;
    }

    // Fill in defaults for the identity axes so enumeration can rely
    // on their presence. Single-value axes never widen the product.
    const std::pair<const char *, const char *> defaults[] = {
        {"bench", "HT-H"},   {"protocol", "getm"}, {"scale", "0.25"},
        {"seed", "7"},       {"concurrency", "opt"},
    };
    for (const auto &[key, value] : defaults)
        if (!findAxis(key))
            axes.push_back(Axis{key, {value}});
    return true;
}

bool
SweepManifest::load(const std::string &path, std::string &error)
{
    std::ifstream file(path);
    if (!file) {
        error = "cannot open " + path;
        return false;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "" : path.substr(0, slash);
    return parse(buffer.str(), dir, error);
}

std::uint64_t
SweepManifest::manifestHash() const
{
    std::string spec = "getm-sweep-manifest v1\n";
    spec += "name=" + sweepName + "\n";
    spec += "config=" + baseConfigPath + "\n";
    spec += "max_cycles=" + jsonNumber(maxCycles) + "\n";
    // Appended only when set, so pre-existing manifests keep the hash
    // they had before the key existed.
    if (retries)
        spec += "retries=" + std::to_string(retries) + "\n";
    for (const Axis &axis : axes) {
        spec += axis.key + "=";
        for (const std::string &value : axis.values)
            spec += value + ",";
        spec += "\n";
    }
    return fnv1a64(spec);
}

bool
SweepManifest::enumerate(std::vector<SweepPoint> &points,
                         std::string &error) const
{
    points.clear();

    GpuConfig base = GpuConfig::gtx480();
    if (!baseConfigPath.empty() &&
        !loadConfigFile(baseConfigPath, base, error))
        return false;

    // Odometer over the axes, in declaration order (last axis fastest).
    std::vector<std::size_t> index(axes.size(), 0);
    for (;;) {
        SweepPoint point;
        point.config = base;
        point.maxCycles = maxCycles;
        point.retries = retries;
        std::string id_suffix;
        std::optional<std::uint64_t> concurrency; // Unset = "opt".

        for (std::size_t a = 0; a < axes.size(); ++a) {
            const Axis &axis = axes[a];
            const std::string &value = axis.values[index[a]];
            if (axis.key == "bench") {
                std::string spec_error;
                parseWorkloadSpec(value, point.bench, spec_error);
            } else if (axis.key == "protocol") {
                parseProtocolName(value, point.protocol);
            } else if (axis.key == "scale") {
                parseConfigDouble(value, point.scale);
            } else if (axis.key == "seed") {
                parseConfigUint(value, point.seed);
            } else if (axis.key == "concurrency") {
                std::uint64_t limit = 0;
                if (parseConfigUint(value, limit)) // "opt" leaves it unset.
                    concurrency = limit;
            } else if (!applyConfigText(axis.key + " = " + value,
                                        point.config, error)) {
                error = "axis " + axis.key + ": " + error;
                return false;
            }
            if (axis.values.size() > 1 && axis.key != "bench" &&
                axis.key != "protocol")
                id_suffix += "+" + axis.key + "=" + value;
        }

        // Every point exports a metrics document: the sampler defaults
        // on unless the manifest takes explicit control of the interval.
        point.resolve(concurrency, !findAxis("sample_interval"));
        point.id += id_suffix;
        points.push_back(std::move(point));

        // Tick the odometer.
        std::size_t a = axes.size();
        while (a > 0) {
            --a;
            if (++index[a] < axes[a].values.size())
                break;
            index[a] = 0;
            if (a == 0)
                return true;
        }
        if (axes.empty())
            return true;
    }
}

} // namespace getm
