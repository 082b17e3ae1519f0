#include "ckpt/checkpoint.hh"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/sim_error.hh"

namespace getm::ckpt {

namespace {

constexpr char magic[8] = {'G', 'E', 'T', 'M', 'C', 'K', 'P', 'T'};
constexpr std::size_t headerSize = 8 + 4 + 8 + 8 + 8;
constexpr std::size_t trailerSize = 4;

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

void
append(std::string &out, const void *data, std::size_t size)
{
    out.append(static_cast<const char *>(data), size);
}

template <class T>
T
readAt(const std::string &bytes, std::size_t offset)
{
    T value;
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
    return value;
}

[[noreturn]] void
fail(const std::string &what, const std::string &why)
{
    throw SimError(SimErrorKind::Checkpoint,
                   "checkpoint " + what + ": " + why);
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size)
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    std::uint32_t crc = 0xFFFFFFFFu;
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i)
        crc = table[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

std::string
encode(const Snapshot &snap)
{
    std::string out;
    out.reserve(headerSize + snap.payload.size() + trailerSize);
    append(out, magic, sizeof(magic));
    const std::uint32_t version = formatVersion;
    append(out, &version, sizeof(version));
    append(out, &snap.configHash, sizeof(snap.configHash));
    append(out, &snap.cycle, sizeof(snap.cycle));
    const std::uint64_t payload_size = snap.payload.size();
    append(out, &payload_size, sizeof(payload_size));
    out += snap.payload;
    const std::uint32_t crc = crc32(out.data(), out.size());
    append(out, &crc, sizeof(crc));
    return out;
}

Snapshot
decode(const std::string &bytes, std::uint64_t expectedConfigHash,
       const std::string &what)
{
    if (bytes.size() < headerSize + trailerSize)
        fail(what, "truncated (only " + std::to_string(bytes.size()) +
                       " bytes, header alone needs " +
                       std::to_string(headerSize + trailerSize) + ")");
    if (std::memcmp(bytes.data(), magic, sizeof(magic)) != 0)
        fail(what, "bad magic (not a GETM checkpoint file)");

    const auto payload_size = readAt<std::uint64_t>(bytes, 28);
    const std::uint64_t expect_total =
        headerSize + payload_size + trailerSize;
    if (bytes.size() < expect_total)
        fail(what, "truncated (header declares " +
                       std::to_string(payload_size) +
                       " payload bytes, file holds " +
                       std::to_string(bytes.size() - headerSize -
                                      trailerSize) + ")");
    if (bytes.size() > expect_total)
        fail(what, "corrupt (trailing garbage after declared payload)");

    const std::uint32_t stored_crc =
        readAt<std::uint32_t>(bytes, bytes.size() - trailerSize);
    const std::uint32_t actual_crc =
        crc32(bytes.data(), bytes.size() - trailerSize);
    if (stored_crc != actual_crc) {
        char buf[64];
        std::snprintf(buf, sizeof(buf),
                      "CRC mismatch (stored %08x, computed %08x)",
                      stored_crc, actual_crc);
        fail(what, buf);
    }

    const auto version = readAt<std::uint32_t>(bytes, 8);
    if (version != formatVersion)
        fail(what, "format version skew (file v" +
                       std::to_string(version) + ", this build reads v" +
                       std::to_string(formatVersion) + ")");

    Snapshot snap;
    snap.configHash = readAt<std::uint64_t>(bytes, 12);
    snap.cycle = readAt<std::uint64_t>(bytes, 20);
    if (snap.configHash != expectedConfigHash) {
        char buf[128]; // the message is 105 characters
        std::snprintf(buf, sizeof(buf),
                      "config mismatch (snapshot %016llx, this run "
                      "%016llx) -- wrong workload or configuration",
                      static_cast<unsigned long long>(snap.configHash),
                      static_cast<unsigned long long>(expectedConfigHash));
        fail(what, buf);
    }
    snap.payload =
        bytes.substr(headerSize, static_cast<std::size_t>(payload_size));
    return snap;
}

void
writeAtomic(const std::string &path, const std::string &bytes)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            fail(path, "cannot open temp file for writing");
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
        os.flush();
        if (!os)
            fail(path, "short write to temp file");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fail(path, "rename from temp file failed");
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fail(path, "cannot open for reading");
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    if (is.bad())
        fail(path, "read error");
    return bytes;
}

std::string
snapshotFileName(std::uint64_t cycle)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "ckpt-%012llu.ckpt",
                  static_cast<unsigned long long>(cycle));
    return buf;
}

std::string
writeSnapshot(const std::string &dir, const Snapshot &snap)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fail(dir, "cannot create checkpoint directory (" +
                      ec.message() + ")");
    const std::string name = snapshotFileName(snap.cycle);
    const std::string path = dir + "/" + name;
    writeAtomic(path, encode(snap));
    writeAtomic(dir + "/" + latestPointerName, name + "\n");
    return path;
}

std::string
resolveRestorePath(const std::string &pathOrDir)
{
    std::error_code ec;
    if (std::filesystem::is_directory(pathOrDir, ec)) {
        const std::string pointer =
            pathOrDir + "/" + latestPointerName;
        if (!std::filesystem::exists(pointer, ec))
            fail(pathOrDir,
                 "directory holds no latest.ckpt pointer (no "
                 "checkpoint was ever completed there)");
        std::string name = readFile(pointer);
        while (!name.empty() &&
               (name.back() == '\n' || name.back() == '\r'))
            name.pop_back();
        if (name.empty() || name.find('/') != std::string::npos)
            fail(pointer, "latest.ckpt pointer is malformed");
        return pathOrDir + "/" + name;
    }
    return pathOrDir;
}

Snapshot
readSnapshot(const std::string &path, std::uint64_t expectedConfigHash)
{
    return decode(readFile(path), expectedConfigHash, path);
}

} // namespace getm::ckpt
