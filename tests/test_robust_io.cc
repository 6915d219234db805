/**
 * @file
 * Tests for the hardened I/O layer: Status/StatusOr, CRC32, atomic
 * writes, the versioned+checksummed envelope, weight-file corruption
 * handling, result-cache corruption recovery, two-process cache
 * writes, and the SNAPEA_FAULT deterministic fault-injection hook
 * (the FaultInject suite doubles as the `faultinject` ctest label).
 */

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/result_cache.hh"
#include "nn/conv.hh"
#include "nn/models/model_zoo.hh"
#include "nn/serialize.hh"
#include "util/fault.hh"
#include "util/io.hh"
#include "util/random.hh"
#include "util/status.hh"

using namespace snapea;
namespace fs = std::filesystem;

namespace {

/** A fresh per-test scratch directory under /tmp. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = "/tmp/snapea_robust_" + name + "_"
        + std::to_string(::getpid());
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeAll(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(),
              static_cast<std::streamsize>(data.size()));
    ASSERT_TRUE(static_cast<bool>(out)) << path;
}

/** Overwrite the byte at @p pos of the file at @p path in place. */
void
patchByte(const std::string &path, size_t pos, char byte)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(pos));
    f.put(byte);
    ASSERT_TRUE(static_cast<bool>(f)) << path;
}

/** No leftover atomic-write temp files in @p dir. */
void
expectNoTempFiles(const std::string &dir)
{
    for (const auto &entry : fs::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos)
            << "leftover temp file " << entry.path();
    }
}

/** Installs a fault spec for the scope, clears it on exit. */
struct FaultGuard
{
    explicit FaultGuard(const std::string &spec)
    {
        EXPECT_TRUE(setFaultSpec(spec).ok());
    }
    // Destructor cleanup is best-effort; clearing the fault spec
    // cannot meaningfully fail and a dtor has no error channel.
    // snapea-lint: allow(no-discarded-status)
    ~FaultGuard() { (void)setFaultSpec(""); }
};

std::unique_ptr<Network>
smallNet()
{
    ModelScale scale;
    scale.input_size = 48;
    return buildModel(ModelId::AlexNet, scale);
}

void
fillRandomWeights(Network &net, uint64_t seed)
{
    Rng rng(seed);
    for (int idx : net.convLayers()) {
        auto &conv = static_cast<Conv2D &>(net.layer(idx));
        for (size_t i = 0; i < conv.weights().size(); ++i)
            conv.weights()[i] = static_cast<float>(rng.gaussian());
        for (auto &b : conv.bias())
            b = static_cast<float>(rng.gaussian());
    }
}

/** Conv weights of a freshly built network are all zero. */
bool
convWeightsAllZero(const Network &net)
{
    for (int idx : net.convLayers()) {
        const auto &conv =
            static_cast<const Conv2D &>(net.layer(idx));
        for (size_t i = 0; i < conv.weights().size(); ++i) {
            // Asking "was this weight deserialized at all" — exact
            // zero is the correct probe for untouched storage.
            // snapea-lint: allow(no-float-compare)
            if (conv.weights()[i] != 0.0f)
                return false;
        }
    }
    return true;
}

/** A fully-populated synthetic ModeResult; variants differ. */
ModeResult
sampleResult(int variant)
{
    ModeResult r;
    r.model_name = "TestNet";
    r.epsilon = 0.03 + variant * 0.001;
    r.accuracy = 0.9876543210123 + variant * 1e-4;
    r.mac_ratio = 1.0 / 3.0 + variant * 1e-5;
    r.tn_rate = 2.0 / 7.0;
    r.fn_rate = 1.0 / 11.0;
    r.fn_small_fraction = 5.0 / 13.0;
    r.snapea_sim.total_cycles = 123456789u + variant;
    r.eyeriss_sim.total_cycles = 987654321u;
    r.snapea_sim.energy = {1.0 / 3, 2.0 / 3, 4.0 / 7, 1e-7,
                           3.14159, 2.71828};
    r.eyeriss_sim.energy = {7.0 / 3, 1.0 / 9, 0.5, 0.25,
                            6.28318, 1.41421};
    r.opt_stats.global_iterations = 7 + variant;
    r.opt_stats.initial_err = 0.25;
    r.opt_stats.final_err = 1.0 / 81.0;
    r.opt_stats.predictive_layers = 3;
    r.opt_stats.total_conv_layers = 5;
    for (int i = 0; i < 2; ++i) {
        LayerComparison lc;
        lc.name = "conv layer " + std::to_string(i);  // with spaces
        lc.predictive = i == 1;
        lc.snapea_cycles = 1000u + i + variant;
        lc.eyeriss_cycles = 1300u + i;
        lc.snapea_energy_pj = 1.0 / (3 + i);
        lc.eyeriss_energy_pj = 2.0 / (3 + i);
        r.layers.push_back(std::move(lc));
    }
    return r;
}

/** Exact (bitwise, for doubles) equality of serialized fields. */
void
expectModeEqual(const ModeResult &a, const ModeResult &b)
{
    EXPECT_EQ(a.model_name, b.model_name);
    EXPECT_EQ(a.epsilon, b.epsilon);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.mac_ratio, b.mac_ratio);
    EXPECT_EQ(a.tn_rate, b.tn_rate);
    EXPECT_EQ(a.fn_rate, b.fn_rate);
    EXPECT_EQ(a.fn_small_fraction, b.fn_small_fraction);
    EXPECT_EQ(a.snapea_sim.total_cycles, b.snapea_sim.total_cycles);
    EXPECT_EQ(a.eyeriss_sim.total_cycles, b.eyeriss_sim.total_cycles);
    EXPECT_EQ(a.snapea_sim.energy.total(), b.snapea_sim.energy.total());
    EXPECT_EQ(a.eyeriss_sim.energy.dram_pj, b.eyeriss_sim.energy.dram_pj);
    EXPECT_EQ(a.opt_stats.global_iterations,
              b.opt_stats.global_iterations);
    EXPECT_EQ(a.opt_stats.initial_err, b.opt_stats.initial_err);
    EXPECT_EQ(a.opt_stats.final_err, b.opt_stats.final_err);
    EXPECT_EQ(a.opt_stats.predictive_layers,
              b.opt_stats.predictive_layers);
    EXPECT_EQ(a.opt_stats.total_conv_layers,
              b.opt_stats.total_conv_layers);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (size_t i = 0; i < a.layers.size(); ++i) {
        EXPECT_EQ(a.layers[i].name, b.layers[i].name);
        EXPECT_EQ(a.layers[i].predictive, b.layers[i].predictive);
        EXPECT_EQ(a.layers[i].snapea_cycles, b.layers[i].snapea_cycles);
        EXPECT_EQ(a.layers[i].eyeriss_cycles,
                  b.layers[i].eyeriss_cycles);
        EXPECT_EQ(a.layers[i].snapea_energy_pj,
                  b.layers[i].snapea_energy_pj);
        EXPECT_EQ(a.layers[i].eyeriss_energy_pj,
                  b.layers[i].eyeriss_energy_pj);
    }
}

} // namespace

// ---------------------------------------------------------------
// Status / StatusOr

TEST(Status, DefaultIsOk)
{
    Status st;
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::Ok);
    EXPECT_EQ(st.toString(), "ok");
}

TEST(Status, StatusfFormatsCodeAndMessage)
{
    const Status st =
        statusf(StatusCode::Corrupt, "bad byte at %d", 42);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::Corrupt);
    EXPECT_EQ(st.message(), "bad byte at 42");
    EXPECT_EQ(st.toString(), "corrupt: bad byte at 42");
}

TEST(Status, StatusOrHoldsValueOrStatus)
{
    StatusOr<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 7);

    StatusOr<int> bad(statusf(StatusCode::NotFound, "nope"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::NotFound);
}

// ---------------------------------------------------------------
// CRC32

TEST(Crc32, KnownVector)
{
    // The canonical CRC-32 check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
}

/** The plain bytewise CRC-32 loop: one shift-and-xor per bit. */
uint32_t
bytewiseCrc32(const unsigned char *p, size_t n, uint32_t seed)
{
    uint32_t c = seed ^ 0xffffffffu;
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

TEST(Crc32, SlicedMatchesBytewiseReference)
{
    // Every length 0-64 (the 8-byte body and its 0-7 byte tail), at
    // random, mostly unaligned offsets, each call seeded with the
    // previous CRC as a chained computation would be.
    Rng rng(31);
    std::vector<unsigned char> buf(4096 + 64);
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng.uniformInt(256));
    uint32_t seed = 0;
    for (size_t len = 0; len <= 64; ++len) {
        for (int rep = 0; rep < 32; ++rep) {
            const size_t off = rng.uniformInt(4096);
            const uint32_t want =
                bytewiseCrc32(buf.data() + off, len, seed);
            ASSERT_EQ(crc32(buf.data() + off, len, seed), want)
                << "len=" << len << " off=" << off;
            seed = want;
        }
    }
    // One long buffer in uneven chained pieces equals it in one go.
    uint32_t chained = 0;
    for (size_t at = 0, piece = 1; at < buf.size(); piece = piece * 3 + 1) {
        const size_t len = std::min(piece, buf.size() - at);
        chained = crc32(buf.data() + at, len, chained);
        at += len;
    }
    EXPECT_EQ(chained, bytewiseCrc32(buf.data(), buf.size(), 0));
    EXPECT_EQ(crc32(buf.data(), buf.size()), chained);
}

TEST(Crc32, DetectsSingleBitFlip)
{
    std::string data(1024, 'x');
    const uint32_t base = crc32(data);
    data[512] ^= 0x01;
    EXPECT_NE(crc32(data), base);
}

// ---------------------------------------------------------------
// Atomic writes and the versioned envelope

TEST(AtomicWrite, RoundTripAndNoTempLitter)
{
    const std::string dir = freshDir("atomic");
    const std::string path = dir + "/file.txt";
    ASSERT_TRUE(atomicWriteFile(path, "hello world").ok());
    EXPECT_EQ(readAll(path), "hello world");
    ASSERT_TRUE(atomicWriteFile(path, "second").ok());
    EXPECT_EQ(readAll(path), "second");
    expectNoTempFiles(dir);
    fs::remove_all(dir);
}

TEST(AtomicWrite, MissingFileIsNotFound)
{
    const StatusOr<std::string> r =
        readFileToString("/nonexistent/nope.txt");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::NotFound);
}

TEST(VersionedText, RoundTrip)
{
    const std::string dir = freshDir("envelope");
    const std::string path = dir + "/rec";
    const std::string body = "line one\nline two\n";
    ASSERT_TRUE(writeVersionedText(path, "snapea-test", 3, body).ok());
    const StatusOr<std::string> back =
        readVersionedText(path, "snapea-test", 3);
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back.value(), body);
    fs::remove_all(dir);
}

TEST(VersionedText, WrongFormatAndVersionAreRejected)
{
    const std::string dir = freshDir("envelope2");
    const std::string path = dir + "/rec";
    ASSERT_TRUE(writeVersionedText(path, "snapea-test", 3, "x").ok());

    const StatusOr<std::string> other =
        readVersionedText(path, "snapea-other", 3);
    ASSERT_FALSE(other.ok());
    EXPECT_EQ(other.status().code(), StatusCode::Corrupt);

    const StatusOr<std::string> newer =
        readVersionedText(path, "snapea-test", 4);
    ASSERT_FALSE(newer.ok());
    EXPECT_EQ(newer.status().code(), StatusCode::VersionMismatch);
    fs::remove_all(dir);
}

TEST(VersionedText, EverySingleBitFlipIsCaught)
{
    const std::string dir = freshDir("bitflip");
    const std::string path = dir + "/rec";
    ASSERT_TRUE(writeVersionedText(path, "snapea-test", 1,
                                   "payload 123 456\n").ok());
    const std::string pristine = readAll(path);
    for (size_t i = 0; i < pristine.size(); ++i) {
        std::string mutated = pristine;
        mutated[i] ^= 0x01;
        writeAll(path, mutated);
        const StatusOr<std::string> r =
            readVersionedText(path, "snapea-test", 1);
        EXPECT_FALSE(r.ok()) << "bit flip at byte " << i
                             << " was accepted";
    }
    fs::remove_all(dir);
}

TEST(VersionedText, TruncationAtEveryPrefixIsCaught)
{
    const std::string dir = freshDir("trunc");
    const std::string path = dir + "/rec";
    ASSERT_TRUE(writeVersionedText(path, "snapea-test", 1,
                                   "0123456789abcdef\n").ok());
    const std::string pristine = readAll(path);
    for (size_t keep = 0; keep < pristine.size(); ++keep) {
        writeAll(path, pristine.substr(0, keep));
        const StatusOr<std::string> r =
            readVersionedText(path, "snapea-test", 1);
        EXPECT_FALSE(r.ok()) << "truncation to " << keep
                             << " bytes was accepted";
    }
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// Weight files

TEST(WeightFile, RoundTripStatusOk)
{
    const std::string dir = freshDir("weights_rt");
    const std::string path = dir + "/w.bin";
    auto net = smallNet();
    fillRandomWeights(*net, 5);
    ASSERT_TRUE(saveWeights(*net, path).ok());

    auto other = smallNet();
    ASSERT_TRUE(loadWeights(*other, path).ok());
    for (int idx : net->convLayers()) {
        const auto &a = static_cast<const Conv2D &>(net->layer(idx));
        const auto &b =
            static_cast<const Conv2D &>(other->layer(idx));
        for (size_t i = 0; i < a.weights().size(); ++i)
            ASSERT_EQ(a.weights()[i], b.weights()[i]);
        for (size_t i = 0; i < a.bias().size(); ++i)
            ASSERT_EQ(a.bias()[i], b.bias()[i]);
    }
    fs::remove_all(dir);
}

TEST(WeightFile, TruncationNeverCrashesOrLoads)
{
    const std::string dir = freshDir("weights_trunc");
    const std::string path = dir + "/w.bin";
    const std::string cut = dir + "/cut.bin";
    auto net = smallNet();
    fillRandomWeights(*net, 7);
    ASSERT_TRUE(saveWeights(*net, path).ok());
    const std::string pristine = readAll(path);

    // Every header/trailer boundary byte plus points through the
    // payload (field boundaries inside it included by density).
    std::vector<size_t> cuts;
    for (size_t i = 0; i <= 64 && i < pristine.size(); ++i)
        cuts.push_back(i);
    for (int q = 1; q <= 7; ++q)
        cuts.push_back(pristine.size() * q / 8);
    cuts.push_back(pristine.size() - 5);
    cuts.push_back(pristine.size() - 1);

    for (size_t keep : cuts) {
        writeAll(cut, pristine.substr(0, keep));
        auto victim = smallNet();
        const Status st = loadWeights(*victim, cut);
        EXPECT_FALSE(st.ok())
            << "truncation to " << keep << " bytes was accepted";
        EXPECT_TRUE(convWeightsAllZero(*victim))
            << "truncation to " << keep
            << " bytes partially modified the network";
    }
    fs::remove_all(dir);
}

TEST(WeightFile, BitFlipsAreCaughtByChecksum)
{
    const std::string dir = freshDir("weights_flip");
    const std::string path = dir + "/w.bin";
    auto net = smallNet();
    fillRandomWeights(*net, 9);
    ASSERT_TRUE(saveWeights(*net, path).ok());
    const std::string pristine = readAll(path);

    std::vector<size_t> positions;
    for (size_t i = 0; i < 24; ++i)  // header + first payload bytes
        positions.push_back(i);
    for (size_t i = 24; i < pristine.size(); i += 1009)
        positions.push_back(i);  // sampled payload + trailer bytes
    positions.push_back(pristine.size() - 1);

    // The load parses and checks the whole file before it commits
    // anything, so one victim serves every flip: each rejected flip
    // must leave it all zero.  Each flip is patched into the file in
    // place and undone after the load.
    auto victim = smallNet();
    for (size_t pos : positions) {
        patchByte(path, pos, static_cast<char>(pristine[pos] ^ 0x10));
        const Status st = loadWeights(*victim, path);
        EXPECT_FALSE(st.ok())
            << "bit flip at byte " << pos << " was accepted";
        EXPECT_TRUE(convWeightsAllZero(*victim))
            << "bit flip at byte " << pos
            << " partially modified the network";
        if (!convWeightsAllZero(*victim))
            victim = smallNet();
        patchByte(path, pos, pristine[pos]);
    }
    fs::remove_all(dir);
}

TEST(WeightFile, VersionBumpIsRejected)
{
    const std::string dir = freshDir("weights_ver");
    const std::string path = dir + "/w.bin";
    auto net = smallNet();
    ASSERT_TRUE(saveWeights(*net, path).ok());
    std::string mutated = readAll(path);
    mutated[4] = 3;  // version field (little-endian u32 at offset 4)
    writeAll(path, mutated);
    const Status st = loadWeights(*net, path);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::VersionMismatch);
    fs::remove_all(dir);
}

TEST(WeightFile, HugeStringLengthIsBounded)
{
    const std::string dir = freshDir("weights_len");
    const std::string path = dir + "/w.bin";

    // A well-formed envelope whose payload claims a 4 GiB layer
    // name: readString must clamp to the remaining payload, not
    // allocate or read past the buffer.  The layer count must match
    // the network so the parser gets as far as the name.
    auto net = smallNet();
    ASSERT_TRUE(saveWeights(*net, path).ok());
    std::string saved = readAll(path);
    uint32_t layer_count = 0;
    std::memcpy(&layer_count, saved.data() + 16, 4);

    std::string payload;
    auto putU32 = [&](uint32_t v) {
        payload.append(reinterpret_cast<const char *>(&v), 4);
    };
    putU32(layer_count);
    putU32(0xffffffffu);  // absurd name length
    payload += "junk";

    std::string file;
    uint32_t magic = 0x53504e57, version = 2;
    uint64_t len = payload.size();
    file.append(reinterpret_cast<const char *>(&magic), 4);
    file.append(reinterpret_cast<const char *>(&version), 4);
    file.append(reinterpret_cast<const char *>(&len), 8);
    file += payload;
    const uint32_t crc = crc32(payload);
    file.append(reinterpret_cast<const char *>(&crc), 4);
    writeAll(path, file);

    const Status st = loadWeights(*net, path);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::Corrupt);
    EXPECT_NE(st.message().find("string length"), std::string::npos);
    fs::remove_all(dir);
}

TEST(WeightFile, TopologyMismatchIsInvalidArgument)
{
    const std::string dir = freshDir("weights_topo");
    const std::string path = dir + "/w.bin";
    ModelScale scale;
    scale.input_size = 48;
    auto alex = buildModel(ModelId::AlexNet, scale);
    ASSERT_TRUE(saveWeights(*alex, path).ok());

    auto squeeze = buildModel(ModelId::SqueezeNet, scale);
    const Status st = loadWeights(*squeeze, path);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
    EXPECT_TRUE(convWeightsAllZero(*squeeze));
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// Result cache

TEST(ModeCache, RoundTripIsBitExact)
{
    const std::string dir = freshDir("cache_rt");
    const std::string path = dir + "/m.result";
    const ModeResult res = sampleResult(0);
    saveModeResult(path, res);
    ModeResult back;
    ASSERT_TRUE(loadModeResult(path, back));
    expectModeEqual(res, back);
    expectNoTempFiles(dir);
    fs::remove_all(dir);
}

TEST(ModeCache, MissingSectionIsAMiss)
{
    const std::string dir = freshDir("cache_sections");
    const std::string path = dir + "/m.result";
    const ModeResult res = sampleResult(0);
    saveModeResult(path, res);

    // Drop each required section in turn; the record must become a
    // miss, never a hit with default-initialized fields.
    for (const char *tag : {"scalars", "optstats", "snapea",
                            "eyeriss", "senergy", "eenergy"}) {
        const StatusOr<std::string> body =
            readVersionedText(path, "snapea-result", 2);
        ASSERT_TRUE(body.ok());
        std::istringstream in(body.value());
        std::ostringstream kept;
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind(tag, 0) != 0)
                kept << line << "\n";
        }
        const std::string mutilated = dir + "/mutilated.result";
        ASSERT_TRUE(writeVersionedText(mutilated, "snapea-result", 2,
                                       kept.str()).ok());
        ModeResult out;
        EXPECT_FALSE(loadModeResult(mutilated, out))
            << "record missing '" << tag << "' was accepted";
    }
    fs::remove_all(dir);
}

TEST(ModeCache, CorruptionAndStaleVersionAreMisses)
{
    const std::string dir = freshDir("cache_corrupt");
    const std::string path = dir + "/m.result";
    saveModeResult(path, sampleResult(0));
    const std::string pristine = readAll(path);

    // Bit flip.
    std::string mutated = pristine;
    mutated[pristine.size() / 2] ^= 0x04;
    writeAll(path, mutated);
    ModeResult out;
    EXPECT_FALSE(loadModeResult(path, out));

    // Truncation.
    writeAll(path, pristine.substr(0, pristine.size() / 2));
    EXPECT_FALSE(loadModeResult(path, out));

    // Stale format version.
    ASSERT_TRUE(writeVersionedText(path, "snapea-result", 1,
                                   "scalars x 0 0 0 0 0 0\n").ok());
    EXPECT_FALSE(loadModeResult(path, out));

    // Legacy (pre-envelope) record.
    writeAll(path, "scalars AlexNet 0 1 0.5 0 0 0\nsnapea 100\n");
    EXPECT_FALSE(loadModeResult(path, out));

    // Intact file still loads.
    writeAll(path, pristine);
    EXPECT_TRUE(loadModeResult(path, out));
    fs::remove_all(dir);
}

TEST(ModeCache, TwoProcessWritersNeverInterleave)
{
    const std::string dir = freshDir("cache_concurrent");
    const std::string path = dir + "/shared.result";
    const ModeResult a = sampleResult(1);
    const ModeResult b = sampleResult(2);

    pid_t pids[2];
    for (int k = 0; k < 2; ++k) {
        pids[k] = ::fork();
        ASSERT_GE(pids[k], 0);
        if (pids[k] == 0) {
            const ModeResult &mine = k == 0 ? a : b;
            for (int i = 0; i < 25; ++i)
                saveModeResult(path, mine);
            ::_exit(0);
        }
    }
    for (pid_t p : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(p, &status, 0), p);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // Whichever writer won, the record must be entirely one
    // writer's — a torn/interleaved file would fail the checksum or
    // mix variant fields.
    ModeResult got;
    ASSERT_TRUE(loadModeResult(path, got));
    const bool is_a =
        got.snapea_sim.total_cycles == a.snapea_sim.total_cycles;
    expectModeEqual(is_a ? a : b, got);
    expectNoTempFiles(dir);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// Fault injection (the `faultinject` ctest label runs FaultInject*)

TEST(FaultInject, SpecParsing)
{
    EXPECT_FALSE(setFaultSpec("nonsense").ok());
    EXPECT_FALSE(setFaultSpec("io:write:0").ok());
    EXPECT_FALSE(setFaultSpec("io:explode:1").ok());
    EXPECT_FALSE(setFaultSpec("net:write:1").ok());
    EXPECT_TRUE(setFaultSpec("io:write:2,io:read:*").ok());
    EXPECT_TRUE(setFaultSpec("").ok());
}

TEST(FaultInject, WriteFaultActsLikeEnospc)
{
    const std::string dir = freshDir("fi_write");
    const std::string path = dir + "/f.txt";
    {
        FaultGuard guard("io:write:1");
        const Status st = atomicWriteFile(path, "doomed");
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.code(), StatusCode::IoError);
        EXPECT_NE(st.message().find("No space"), std::string::npos);
    }
    EXPECT_FALSE(fs::exists(path));
    expectNoTempFiles(dir);
    // The next write (fault cleared) succeeds.
    EXPECT_TRUE(atomicWriteFile(path, "fine").ok());
    EXPECT_EQ(readAll(path), "fine");
    fs::remove_all(dir);
}

TEST(FaultInject, RenameFaultPreservesPreviousContents)
{
    const std::string dir = freshDir("fi_rename");
    const std::string path = dir + "/f.txt";
    ASSERT_TRUE(atomicWriteFile(path, "version one").ok());
    {
        FaultGuard guard("io:rename:1");
        EXPECT_FALSE(atomicWriteFile(path, "version two").ok());
    }
    EXPECT_EQ(readAll(path), "version one");
    expectNoTempFiles(dir);
    fs::remove_all(dir);
}

TEST(FaultInject, FsyncFaultFailsCleanly)
{
    const std::string dir = freshDir("fi_fsync");
    const std::string path = dir + "/f.txt";
    FaultGuard guard("io:fsync:1");
    EXPECT_FALSE(atomicWriteFile(path, "x").ok());
    EXPECT_FALSE(fs::exists(path));
    expectNoTempFiles(dir);
    fs::remove_all(dir);
}

TEST(FaultInject, OpenFaultSurfacesIoError)
{
    const std::string dir = freshDir("fi_open");
    const std::string path = dir + "/f.txt";
    ASSERT_TRUE(atomicWriteFile(path, "x").ok());
    FaultGuard guard("io:open:1");
    const StatusOr<std::string> r = readFileToString(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::IoError);
    fs::remove_all(dir);
}

TEST(FaultInject, ShortReadIsDetectedByEnvelope)
{
    const std::string dir = freshDir("fi_read");
    const std::string path = dir + "/rec";
    ASSERT_TRUE(writeVersionedText(path, "snapea-test", 1,
                                   "some body bytes\n").ok());
    FaultGuard guard("io:read:1");
    const StatusOr<std::string> r =
        readVersionedText(path, "snapea-test", 1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::Corrupt);
    fs::remove_all(dir);
}

TEST(FaultInject, WeightSaveFaultReturnsStatus)
{
    const std::string dir = freshDir("fi_weights");
    const std::string path = dir + "/w.bin";
    auto net = smallNet();
    FaultGuard guard("io:write:1");
    const Status st = saveWeights(*net, path);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::IoError);
    EXPECT_FALSE(fs::exists(path));
    fs::remove_all(dir);
}

TEST(FaultInject, LockFaultSkipsCacheWriteGracefully)
{
    const std::string dir = freshDir("fi_lock");
    const std::string path = dir + "/m.result";
    FaultGuard guard("io:lock:1");
    saveModeResult(path, sampleResult(0));  // warns, must not throw
    EXPECT_FALSE(fs::exists(path));
    fs::remove_all(dir);
}

TEST(FaultInject, CacheReadFaultDegradesToMissThenRecovers)
{
    const std::string dir = freshDir("fi_cache");
    const std::string path = dir + "/m.result";
    const ModeResult res = sampleResult(3);
    saveModeResult(path, res);
    {
        FaultGuard guard("io:read:1");
        ModeResult out;
        EXPECT_FALSE(loadModeResult(path, out));
    }
    // Fault gone: the same file is a clean hit again, bit-exact.
    ModeResult out;
    ASSERT_TRUE(loadModeResult(path, out));
    expectModeEqual(res, out);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------
// Crash faults: SNAPEA_FAULT=crash:worker:<nth> kills the process at
// the nth crash checkpoint, and the manner of death cycles with the
// hit ordinal (SIGSEGV, SIGABRT, _exit(42)) so one spec exercises a
// wild pointer, a tripped assertion, and a silent exit.  The
// DeathTest suffix makes gtest run these first, in forked children.

TEST(FaultInjectDeathTest, CrashSpecParsing)
{
    EXPECT_TRUE(setFaultSpec("crash:worker:1").ok());
    EXPECT_TRUE(setFaultSpec("crash:worker:*").ok());
    EXPECT_FALSE(setFaultSpec("crash:explode:1").ok());
    EXPECT_FALSE(setFaultSpec("crash:worker:0").ok());
    EXPECT_TRUE(setFaultSpec("").ok());
}

/**
 * The first ordinal's death.  Plain builds die by SIGSEGV itself.  A
 * sanitizer runtime catches the signal, reports it and exits with its
 * own code (ASan 1, TSan 66), so there any abnormal death counts.
 */
bool
diedOfSegv(int status)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return WIFSIGNALED(status)
        || (WIFEXITED(status) && WEXITSTATUS(status) != 0);
#else
    return WIFSIGNALED(status) && WTERMSIG(status) == SIGSEGV;
#endif
}

TEST(FaultInjectDeathTest, OrdinalsCycleSegvAbortExit)
{
    // Each spec arms exactly one ordinal; the ordinal picks the death.
    EXPECT_EXIT({
        FaultGuard guard("crash:worker:1");
        faultCrashPoint("worker");
    }, diedOfSegv, "");
    EXPECT_EXIT({
        FaultGuard guard("crash:worker:2");
        faultCrashPoint("worker");  // hit 1: counted no-op
        faultCrashPoint("worker");  // hit 2: dies
    }, testing::KilledBySignal(SIGABRT), "");
    EXPECT_EXIT({
        FaultGuard guard("crash:worker:3");
        faultCrashPoint("worker");
        faultCrashPoint("worker");
        faultCrashPoint("worker");
    }, testing::ExitedWithCode(42), "");
}

TEST(FaultInjectDeathTest, OrdinalsAreConsumedPerSiteOnly)
{
    ASSERT_TRUE(setFaultSpec("crash:worker:2").ok());
    // Unknown sites neither fire nor advance the armed counter.
    faultCrashPoint("elsewhere");
    faultCrashPoint("elsewhere");
    // Hit 1 of the armed site is below the ordinal: still alive.
    faultCrashPoint("worker");
    // Hit 2 matches.  The death happens in the EXPECT_EXIT child, but
    // the parent's counter was spent by the fork, so disarm before
    // touching the checkpoint again.
    EXPECT_EXIT(faultCrashPoint("worker"),
                testing::KilledBySignal(SIGABRT), "");
    ASSERT_TRUE(setFaultSpec("").ok());
    faultCrashPoint("worker");  // disarmed: a free pass-through
}
