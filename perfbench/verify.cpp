#include "verify.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

namespace perfbench
{

namespace
{

using bonsai::GensortRecord;
using bonsai::Record128;

constexpr std::size_t kBatchRecords = 1 << 14;

std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

/** 64-bit hash of all 100 bytes of a record. */
std::uint64_t
recordHash(const GensortRecord &rec)
{
    const std::uint8_t *p = rec.bytes.data();
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (std::size_t i = 0; i + 8 <= GensortRecord::kBytes; i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + i, sizeof(w));
        h = (h ^ w) * 0x100000001B3ULL;
        h = (h << 29) | (h >> 35);
    }
    std::uint32_t tail = 0;
    std::memcpy(&tail, p + GensortRecord::kBytes - 4, sizeof(tail));
    return mix64(h ^ tail);
}

/** Order-dependent fold: a different record sequence gives a
 *  different digest, not just a different multiset. */
std::uint64_t
foldDigest(std::uint64_t digest, std::uint64_t record_hash)
{
    return mix64(digest ^ record_hash) + 0x9E3779B97F4A7C15ULL;
}

struct KeyHash
{
    std::uint64_t hi = 0; ///< key bytes 0..7, big-endian
    std::uint32_t lo = 0; ///< key bytes 8..9
    std::uint64_t hash = 0;

    friend bool
    operator<(const KeyHash &a, const KeyHash &b)
    {
        return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
    }
};

KeyHash
keyHash(const GensortRecord &rec)
{
    KeyHash k;
    for (std::size_t b = 0; b < 8; ++b)
        k.hi = (k.hi << 8) | rec.bytes[b];
    k.lo = (static_cast<std::uint32_t>(rec.bytes[8]) << 8) |
        rec.bytes[9];
    k.hash = recordHash(rec);
    return k;
}

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};

/** Call @p fn on consecutive record batches of the file at @p path. */
template <typename Fn>
void
forEachBatch(const std::string &path, Fn &&fn)
{
    std::unique_ptr<std::FILE, FileCloser> file(
        std::fopen(path.c_str(), "rb"));
    if (!file)
        throw std::runtime_error("cannot open " + path);
    std::vector<GensortRecord> batch(kBatchRecords);
    for (;;) {
        const std::size_t got = std::fread(
            batch.data(), GensortRecord::kBytes, batch.size(), file.get());
        fn(batch.data(), got);
        if (got < batch.size())
            break;
    }
    if (std::ferror(file.get()))
        throw std::runtime_error("read error on " + path);
}

} // namespace

void
OutputCheck::feed(const GensortRecord *recs, std::uint64_t count)
{
    valsort_.feed(recs, count);
    for (std::uint64_t i = 0; i < count; ++i)
        digest_ = foldDigest(digest_, recordHash(recs[i]));
}

std::string
OutputCheck::verdict(const Expected &want) const
{
    const bonsai::ValsortSummary &s = valsort_.summary();
    if (s.records != want.records)
        return "output holds " + std::to_string(s.records) +
            " records, the input " + std::to_string(want.records);
    if (!s.sorted)
        return "output is out of order at record " +
            std::to_string(s.unorderedAt);
    if (s.checksum != want.checksum)
        return "output checksum differs from the input's: not a "
               "permutation of the input";
    if (digest_ != want.digest)
        return "output digest differs from the std::sort oracle";
    return "";
}

GensortRecord
amtImage(const Record128 &rec)
{
    GensortRecord img;
    for (std::size_t b = 0; b < 8; ++b)
        img.bytes[b] = static_cast<std::uint8_t>(rec.keyHi >> (56 - 8 * b));
    img.bytes[8] = static_cast<std::uint8_t>(rec.keyLo >> 8);
    img.bytes[9] = static_cast<std::uint8_t>(rec.keyLo);
    for (std::size_t b = 0; b < 6; ++b)
        img.bytes[10 + b] =
            static_cast<std::uint8_t>(rec.value >> (40 - 8 * b));
    return img;
}

OutputCheck
checkPacked(const Record128 *recs, std::uint64_t count)
{
    OutputCheck check;
    std::vector<GensortRecord> batch;
    batch.reserve(kBatchRecords);
    for (std::uint64_t lo = 0; lo < count; lo += kBatchRecords) {
        const std::uint64_t hi = std::min<std::uint64_t>(
            count, lo + kBatchRecords);
        batch.clear();
        for (std::uint64_t i = lo; i < hi; ++i)
            batch.push_back(amtImage(recs[i]));
        check.feed(batch.data(), batch.size());
    }
    return check;
}

OutputCheck
checkFile(const std::string &path)
{
    OutputCheck check;
    forEachBatch(path, [&](const GensortRecord *recs, std::size_t n) {
        check.feed(recs, n);
    });
    return check;
}

Expected
oracleForPacked(const std::vector<Record128> &input)
{
    std::vector<Record128> sorted = input;
    std::sort(sorted.begin(), sorted.end());
    const OutputCheck check = checkPacked(sorted.data(), sorted.size());
    if (check.summary().duplicateKeys != 0)
        throw std::runtime_error("input has duplicate keys; the sorted "
                                 "output would not be unique");
    // The input's checksum is the sorted copy's: it is order-free.
    return {check.summary().records, check.summary().checksum,
            check.digest()};
}

Expected
oracleForFile(const std::string &path)
{
    bonsai::ValsortAccumulator input;
    std::vector<KeyHash> keys;
    forEachBatch(path, [&](const GensortRecord *recs, std::size_t n) {
        input.feed(recs, n);
        for (std::size_t i = 0; i < n; ++i)
            keys.push_back(keyHash(recs[i]));
    });
    std::sort(keys.begin(), keys.end());
    Expected want;
    want.records = input.summary().records;
    want.checksum = input.summary().checksum;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i > 0 && !(keys[i - 1] < keys[i]))
            throw std::runtime_error(
                "input has duplicate keys; the sorted output would "
                "not be unique");
        want.digest = foldDigest(want.digest, keys[i].hash);
    }
    return want;
}

std::string
selfTest()
{
    std::vector<GensortRecord> sorted =
        bonsai::GensortGenerator(7).generate(0, 2000);
    std::sort(sorted.begin(), sorted.end());
    OutputCheck reference;
    reference.feed(sorted.data(), sorted.size());
    const Expected want{sorted.size(), reference.summary().checksum,
                        reference.digest()};
    if (!reference.verdict(want).empty())
        return "an intact sorted output was rejected: " +
            reference.verdict(want);

    const auto rejected = [&](std::vector<GensortRecord> out) {
        OutputCheck check;
        check.feed(out.data(), out.size());
        return !check.verdict(want).empty();
    };
    std::vector<GensortRecord> dropped = sorted;
    dropped.erase(dropped.begin() + 1000);
    if (!rejected(dropped))
        return "an output with a record dropped was accepted";
    std::vector<GensortRecord> swapped = sorted;
    std::swap(swapped[100], swapped[1900]);
    if (!rejected(swapped))
        return "an output with two records swapped was accepted";
    std::vector<GensortRecord> duplicated = sorted;
    duplicated[501] = duplicated[500];
    if (!rejected(duplicated))
        return "an output with a record duplicated was accepted";
    return "";
}

} // namespace perfbench
