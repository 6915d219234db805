#include "util/io.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/logging.hh"

namespace snapea {

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables: t[0] is the bytewise table of the reflected
 * polynomial, and t[k][b] is t[k-1][b] advanced by one more zero
 * byte, so eight input bytes fold into the CRC with eight lookups.
 */
CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    return t;
}

/** Four bytes as a little-endian word, on any host. */
inline uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<uint32_t>(p[0])
        | static_cast<uint32_t>(p[1]) << 8
        | static_cast<uint32_t>(p[2]) << 16
        | static_cast<uint32_t>(p[3]) << 24;
}

} // namespace

uint32_t
crc32(const void *data, size_t n, uint32_t seed)
{
    static const CrcTables t = makeCrcTables();
    const auto *p = static_cast<const unsigned char *>(data);
    uint32_t c = seed ^ 0xffffffffu;
    for (; n >= 8; p += 8, n -= 8) {
        const uint32_t lo = c ^ loadLe32(p);
        const uint32_t hi = loadLe32(p + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu]
            ^ t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24]
            ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu]
            ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

uint32_t
crc32(std::string_view s, uint32_t seed)
{
    return crc32(s.data(), s.size(), seed);
}

const char *
ioOpName(IoOp op)
{
    switch (op) {
      case IoOp::Open: return "open";
      case IoOp::Read: return "read";
      case IoOp::Write: return "write";
      case IoOp::Fsync: return "fsync";
      case IoOp::Rename: return "rename";
      case IoOp::Lock: return "lock";
    }
    return "?";
}

bool
faultShouldFail(IoOp op)
{
    return faultShouldFail(FaultDomain::Io, ioOpName(op));
}

namespace {

/** RAII fd that closes on scope exit. */
struct Fd
{
    int fd = -1;
    explicit Fd(int f) : fd(f) {}
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;
    ~Fd()
    {
        if (fd >= 0)
            ::close(fd);
    }
    int release()
    {
        const int f = fd;
        fd = -1;
        return f;
    }
};

/** Best-effort fsync of the directory containing @p path. */
void
syncParentDir(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

} // namespace

StatusOr<std::string>
readFileToString(const std::string &path)
{
    if (faultShouldFail(IoOp::Open)) {
        return statusf(StatusCode::IoError,
                       "%s: injected open fault", path.c_str());
    }
    Fd fd(::open(path.c_str(), O_RDONLY));
    if (fd.fd < 0) {
        const StatusCode code = errno == ENOENT
            ? StatusCode::NotFound : StatusCode::IoError;
        return statusf(code, "cannot open %s: %s", path.c_str(),
                       std::strerror(errno));
    }
    // One allocation for the whole file: growing the string read by
    // read would map and fault in fresh pages at every doubling.
    std::string out;
    struct stat st {};
    if (::fstat(fd.fd, &st) == 0 && st.st_size > 0)
        out.reserve(static_cast<size_t>(st.st_size));
    char buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd.fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return statusf(StatusCode::IoError, "read %s: %s",
                           path.c_str(), std::strerror(errno));
        }
        if (faultShouldFail(IoOp::Read)) {
            // Simulate a short read: deliver half the data and stop,
            // as if the file were truncated under us.
            out.append(buf, static_cast<size_t>(n) / 2);
            break;
        }
        if (n == 0)
            break;
        out.append(buf, static_cast<size_t>(n));
    }
    return out;
}

Status
atomicWriteFile(const std::string &path, std::string_view contents)
{
    std::ostringstream tmp_name;
    tmp_name << path << ".tmp." << ::getpid();
    const std::string tmp = tmp_name.str();

    if (faultShouldFail(IoOp::Open)) {
        return statusf(StatusCode::IoError,
                       "%s: injected open fault", tmp.c_str());
    }
    Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (fd.fd < 0) {
        return statusf(StatusCode::IoError, "cannot create %s: %s",
                       tmp.c_str(), std::strerror(errno));
    }

    auto failCleanup = [&](Status st) {
        ::unlink(tmp.c_str());
        return st;
    };

    size_t off = 0;
    while (off < contents.size()) {
        if (faultShouldFail(IoOp::Write)) {
            return failCleanup(statusf(
                StatusCode::IoError,
                "write %s: injected fault (%s)", tmp.c_str(),
                std::strerror(ENOSPC)));
        }
        const ssize_t n = ::write(fd.fd, contents.data() + off,
                                  contents.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return failCleanup(statusf(StatusCode::IoError,
                                       "write %s: %s", tmp.c_str(),
                                       std::strerror(errno)));
        }
        off += static_cast<size_t>(n);
    }

    if (faultShouldFail(IoOp::Fsync) || ::fsync(fd.fd) != 0) {
        return failCleanup(statusf(StatusCode::IoError,
                                   "fsync %s failed", tmp.c_str()));
    }
    ::close(fd.release());

    if (faultShouldFail(IoOp::Rename)) {
        return failCleanup(statusf(StatusCode::IoError,
                                   "rename %s -> %s: injected fault",
                                   tmp.c_str(), path.c_str()));
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        return failCleanup(statusf(StatusCode::IoError,
                                   "rename %s -> %s: %s", tmp.c_str(),
                                   path.c_str(),
                                   std::strerror(errno)));
    }
    syncParentDir(path);
    return Status();
}

StatusOr<FileLock>
FileLock::acquire(const std::string &path)
{
    if (faultShouldFail(IoOp::Lock)) {
        return statusf(StatusCode::Unavailable,
                       "%s: injected lock fault", path.c_str());
    }
    Fd fd(::open(path.c_str(), O_RDWR | O_CREAT, 0644));
    if (fd.fd < 0) {
        return statusf(StatusCode::IoError,
                       "cannot open lock file %s: %s", path.c_str(),
                       std::strerror(errno));
    }
    while (::flock(fd.fd, LOCK_EX) != 0) {
        if (errno != EINTR) {
            return statusf(StatusCode::Unavailable, "flock %s: %s",
                           path.c_str(), std::strerror(errno));
        }
    }
    return FileLock(fd.release());
}

StatusOr<FileLock>
FileLock::tryAcquire(const std::string &path)
{
    if (faultShouldFail(IoOp::Lock)) {
        return statusf(StatusCode::Unavailable,
                       "%s: injected lock fault", path.c_str());
    }
    Fd fd(::open(path.c_str(), O_RDWR | O_CREAT, 0644));
    if (fd.fd < 0) {
        return statusf(StatusCode::IoError,
                       "cannot open lock file %s: %s", path.c_str(),
                       std::strerror(errno));
    }
    while (::flock(fd.fd, LOCK_EX | LOCK_NB) != 0) {
        if (errno == EINTR)
            continue;
        const StatusCode code = errno == EWOULDBLOCK
            ? StatusCode::Unavailable : StatusCode::IoError;
        return statusf(code, "flock %s: %s", path.c_str(),
                       std::strerror(errno));
    }
    return FileLock(fd.release());
}

FileLock::FileLock(FileLock &&other) noexcept : fd_(other.fd_)
{
    other.fd_ = -1;
}

FileLock &
FileLock::operator=(FileLock &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

FileLock::~FileLock()
{
    if (fd_ >= 0) {
        ::flock(fd_, LOCK_UN);
        ::close(fd_);
    }
}

Status
writeVersionedText(const std::string &path, const std::string &format,
                   uint32_t version, std::string_view body)
{
    std::ostringstream out;
    char crc_hex[16];
    std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc32(body));
    out << format << " " << version << " " << body.size() << " "
        << crc_hex << "\n";
    out << body;
    return atomicWriteFile(path, out.str());
}

StatusOr<std::string>
readVersionedText(const std::string &path, const std::string &format,
                  uint32_t expected_version)
{
    StatusOr<std::string> data = readFileToString(path);
    if (!data.ok())
        return data.status();
    const std::string &raw = data.value();

    const size_t nl = raw.find('\n');
    if (nl == std::string::npos) {
        return statusf(StatusCode::Corrupt, "%s: missing header line",
                       path.c_str());
    }
    std::istringstream hdr(raw.substr(0, nl));
    std::string fmt;
    uint32_t version = 0;
    uint64_t len = 0;
    std::string crc_hex;
    hdr >> fmt >> version >> len >> crc_hex;
    if (!hdr || fmt != format) {
        return statusf(StatusCode::Corrupt, "%s is not a %s file",
                       path.c_str(), format.c_str());
    }
    if (version != expected_version) {
        return statusf(StatusCode::VersionMismatch,
                       "%s has %s version %u, expected %u",
                       path.c_str(), format.c_str(), version,
                       expected_version);
    }
    const std::string body = raw.substr(nl + 1);
    if (body.size() != len) {
        return statusf(StatusCode::Corrupt,
                       "%s: body is %zu bytes, header says %llu "
                       "(truncated?)", path.c_str(), body.size(),
                       static_cast<unsigned long long>(len));
    }
    char *end = nullptr;
    const uint32_t want =
        static_cast<uint32_t>(std::strtoul(crc_hex.c_str(), &end, 16));
    if (crc_hex.size() != 8 || *end != '\0') {
        return statusf(StatusCode::Corrupt, "%s: bad checksum field",
                       path.c_str());
    }
    if (crc32(body) != want) {
        return statusf(StatusCode::Corrupt, "%s: checksum mismatch",
                       path.c_str());
    }
    return body;
}

} // namespace snapea
