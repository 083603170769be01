/**
 * @file
 * Output verification, run on every sort outside the timed region.
 *
 * An output is accepted only when (a) valsort finds it sorted, with
 * the input's record count and the input's order-independent
 * checksum, and (b) an order-dependent digest over every record equals
 * the digest of a std::sort oracle computed once from the input.
 * Gensort keys are distinct (the oracle checks), so the sorted output
 * is unique and (b) pins it record for record.
 */

#ifndef PERFBENCH_VERIFY_HPP
#define PERFBENCH_VERIFY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/gensort.hpp"
#include "common/record.hpp"

namespace perfbench
{

/** What a correct output must match. */
struct Expected
{
    std::uint64_t records = 0;
    std::uint64_t checksum = 0; ///< the input's valsort checksum
    std::uint64_t digest = 0;   ///< digest of the std::sort oracle
};

/** Streaming check of one output, fed in output order. */
class OutputCheck
{
  public:
    void feed(const bonsai::GensortRecord *recs, std::uint64_t count);

    /** "" when the output fed so far is the correct sort, else the
     *  first reason it is not. */
    std::string verdict(const Expected &want) const;

    std::uint64_t digest() const { return digest_; }
    const bonsai::ValsortSummary &
    summary() const
    {
        return valsort_.summary();
    }

  private:
    bonsai::ValsortAccumulator valsort_;
    std::uint64_t digest_ = 0;
};

/**
 * The packed 16-byte AMT record laid out in the gensort frame: the
 * 10-byte key, then the 6-byte value, then zeros.  Lets the in-memory
 * workload's Record128 output go through valsort unchanged.
 */
bonsai::GensortRecord amtImage(const bonsai::Record128 &rec);

/** Oracle of the in-memory workload: std::sort of a copy of @p input. */
Expected oracleForPacked(const std::vector<bonsai::Record128> &input);

/** Oracle of a gensort record file: std::sort of its (key, record
 *  hash) pairs.  Throws when two records share a key. */
Expected oracleForFile(const std::string &path);

/** Stream @p count AMT records through a fresh check. */
OutputCheck checkPacked(const bonsai::Record128 *recs,
                        std::uint64_t count);

/** Stream a gensort record file through a fresh check. */
OutputCheck checkFile(const std::string &path);

/**
 * Verifier self-test: a sorted sequence passes, and the same sequence
 * with one record dropped, two records swapped or one record
 * duplicated over another is rejected.  Returns "" or what went
 * wrong.
 */
std::string selfTest();

} // namespace perfbench

#endif // PERFBENCH_VERIFY_HPP
