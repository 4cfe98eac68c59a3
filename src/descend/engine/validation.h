/**
 * @file
 * Malformed-input detection shared by the streaming engines.
 *
 * Two pieces:
 *
 *  - preflight_document(): O(1)-ish checks every engine performs before
 *    touching the classifier pipeline — size limit, UTF-8 BOM, and
 *    empty/whitespace-only input.
 *
 *  - StructuralValidator: a whole-document structural check that rides
 *    along with block classification instead of re-scanning. Every 64-byte
 *    block flows through exactly one quote-classification site (the
 *    structural iterator or the label search; the stop/resume protocol
 *    guarantees in-order, no-gap coverage), and each site reports its
 *    block here once. The validator accumulates per-kind bracket balances
 *    ('{'/'}' and '['/']' counted separately, in-string positions masked
 *    out) and remembers whether the final block ended inside a string.
 *
 *    The per-kind balances catch what the skipping engines structurally
 *    cannot see locally: any single byte-level corruption of a bracket
 *    (delete / insert / kind-flip) leaves at least one balance nonzero,
 *    even when a kind-filtered fast-forward would happily jump across the
 *    damage. The end-of-input string state catches unterminated strings,
 *    including a lone '\\' swallowing the padding. Cost: four popcounts
 *    per block over the batch masks, only in paths that already classify
 *    blocks (the skip loops share theirs).
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "descend/engine/padded_string.h"
#include "descend/simd/dispatch.h"
#include "descend/util/bits.h"
#include "descend/util/status.h"

namespace descend {

/** Size / BOM / emptiness checks shared by all four engines. */
EngineStatus preflight_document(PaddedView document, const EngineLimits& limits);

class StructuralValidator {
public:
    /**
     * Accounts one classified block from its pre-computed batch masks.
     * Call with the block's start offset and its clipped in-string mask;
     * blocks must arrive in order and are counted exactly once
     * (re-classification of an already-counted block, as the resume
     * protocol performs, is ignored via the monotone counter).
     *
     * @param valid mask of positions within the input's end bound. All
     *        ones for full blocks; a low-bits mask for the final partial
     *        block of a PaddedView slice, whose tail bytes belong to the
     *        surrounding buffer and must not move any balance. The
     *        in-string mask must already be clipped to @p valid.
     */
    void account(const simd::BlockMasks& masks, std::size_t block_start,
                 std::uint64_t in_string,
                 std::uint64_t valid = ~std::uint64_t{0}) noexcept
    {
        if (block_start != counted_until_) {
            return;
        }
        std::uint64_t not_string = ~in_string & valid;
        // The string state at the end bound is the in-string bit of the
        // highest valid position: bit 63 for a full block, and for the
        // final partial block of a slice the top of the contiguous low
        // mask, which is the one valid bit whose upper neighbour is not.
        std::uint64_t top = valid & ~(valid >> 1);
        account_balance(
            block_start,
            bits::popcount(masks.open_braces & not_string) -
                bits::popcount(masks.close_braces & not_string),
            bits::popcount(masks.open_brackets & not_string) -
                bits::popcount(masks.close_brackets & not_string),
            (in_string & top) != 0);
    }

    /**
     * Accounts one block from its bracket balances, for callers that have
     * already counted the block's out-of-string braces and brackets (the
     * skip loops do, for their own depth tracking). Same exactly-once
     * contract as account().
     *
     * @param ends_in_string the in-string bit of the block's last position
     *        within the input's end bound.
     */
    void account_balance(std::size_t block_start, int object_delta, int array_delta,
                         bool ends_in_string) noexcept
    {
        if (block_start != counted_until_) {
            return;
        }
        counted_until_ += simd::kBlockSize;
        obj_balance_ += object_delta;
        arr_balance_ += array_delta;
        ends_in_string_ = ends_in_string;
    }

    /** Number of bytes covered by accounted blocks so far. */
    std::size_t counted_until() const noexcept { return counted_until_; }

    /**
     * Final verdict once the engine has either classified the whole
     * document or verified that the unclassified tail is whitespace-only
     * (whitespace holds no brackets and cannot keep a string open, so the
     * accounted prefix is the whole structural story either way).
     */
    EngineStatus verdict(std::size_t document_size) const noexcept
    {
        if (ends_in_string_) {
            return {StatusCode::kTruncatedString, document_size};
        }
        if (obj_balance_ != 0 || arr_balance_ != 0) {
            return {StatusCode::kUnbalancedStructure, document_size};
        }
        return {};
    }

private:
    std::size_t counted_until_ = 0;
    std::int64_t obj_balance_ = 0;
    std::int64_t arr_balance_ = 0;
    bool ends_in_string_ = false;
};

}  // namespace descend
