/**
 * @file
 * The descend-serve wire protocol: length-prefixed binary frames carrying
 * one request (query text + document) or one response (status + match
 * count + optional offsets + optional obs stats) each.
 *
 * Design constraints, in order:
 *
 *  1. *Garbage never crashes the server.* Every field is range-checked
 *     before a single byte of payload is buffered; a malformed frame
 *     yields a structured ServeStatus, not an exception. The frame
 *     decoder is a pure incremental state machine (FrameReader) that is
 *     fuzzed directly (fuzz_engine --serve-frames).
 *  2. *Admission control before allocation.* The fixed header carries the
 *     query and body lengths, so over-limit requests are rejected from
 *     the 44 header bytes alone — an attacker cannot make the server
 *     buffer an oversized payload.
 *  3. *One dispatch path.* A 16-bit mode field selects single-document,
 *     fused multi-query, or NDJSON execution; everything else about the
 *     frame is identical, so the daemon, the bench client, the tests and
 *     the fuzzer share one encoder/decoder pair.
 *
 * All integers are little-endian. Layouts (offsets in bytes):
 *
 *   Request (header kRequestHeaderSize = 44):
 *     0  u32 magic        kRequestMagic
 *     4  u16 version      kVersion
 *     6  u16 mode         RequestMode
 *     8  u32 flags        RequestFlags bits
 *    12  u32 deadline_ms  0 = server default (clamped to the tenant cap)
 *    16  u32 max_depth    0 = server default   (EngineLimits::max_depth)
 *    20  u64 max_matches  0 = server default   (EngineLimits::max_match_count)
 *    28  u32 query_len    bytes of query text following the header
 *    32  u32 reserved     must be 0
 *    36  u64 body_len     bytes of document following the query
 *    44  query bytes, then body bytes
 *
 *   Response (header kResponseHeaderSize = 40):
 *     0  u32 magic        kResponseMagic
 *     4  u16 version      kVersion
 *     6  u16 serve_status ServeStatus
 *     8  u16 engine_code  StatusCode of the engine run (0 when not run)
 *    10  u16 flags        ResponseFlags bits (kCacheHit, kHasValues, ...)
 *    12  u32 stats_len    bytes of obs JSON after the offsets
 *    16  u64 engine_offset
 *    24  u64 match_count  total matches (across queries/records)
 *    32  u64 offsets_count  u64 offsets following the values body
 *    40  [values body — only when flags has kHasValues],
 *        then offsets (8 bytes each), then stats JSON bytes
 *
 * The values body (requested with kWantValues, announced with kHasValues)
 * carries the projected payloads — each match's complete subtree slice,
 * byte-verbatim (src/descend/project) — as one length-prefixed block
 * immediately after the 40-byte header:
 *
 *        ┌ 40 B header ─┐┌──────── values body ────────┐┌ offsets ┐┌ stats ┐
 *        │ ... flags ...││ u64 body_len                ││ u64 × n ││ JSON  │
 *        └──────────────┘│ ┌ u32 len ┐┌ value bytes  ┐ │└─────────┘└───────┘
 *                        │ └─────────┘└──────────────┘…│
 *                        └─────────────────────────────┘
 *
 * body_len counts only the (u32 len + bytes) entries, not itself. The
 * decoder admission-checks body_len against FrameLimits before buffering
 * a single value, mirroring the request side. A server whose per-response
 * projection cap (ServePolicy::max_projected_bytes) was hit sets
 * kValuesTruncated: the body holds a document-order prefix of the match
 * set's values, and match_count still reports the true total.
 *
 * Multi-query requests pack the set as newline-separated query texts in
 * the query field. NDJSON responses report offsets as *absolute* stream
 * positions (record span begin + intra-record offset), so one convention
 * serves all three modes. Multi-query values order matches the offsets
 * convention: grouped per query in set order (the per-owner fanout),
 * document order within a query.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "descend/util/status.h"

namespace descend::serve {

inline constexpr std::uint32_t kRequestMagic = 0x76727344;   // "Dsrv"
inline constexpr std::uint32_t kResponseMagic = 0x73727344;  // "Dsrs"
inline constexpr std::uint16_t kVersion = 1;

inline constexpr std::size_t kRequestHeaderSize = 44;
inline constexpr std::size_t kResponseHeaderSize = 40;

/** Execution route of a request — the daemon's one dispatch switch. */
enum class RequestMode : std::uint16_t {
    /** One query over one JSON document (DescendEngine). */
    kSingle = 0,
    /** Newline-separated query set, fused (ProductDescendEngine). */
    kMulti = 1,
    /** One query over an NDJSON stream (StreamExecutor, inline). */
    kNdjson = 2,
};

/** Request flag bits. */
enum RequestFlags : std::uint32_t {
    /** Return the match offsets, not just the count. */
    kWantOffsets = 1u << 0,
    /** Return the obs JSON report as the response's stats payload. */
    kWantStats = 1u << 1,
    /** Return each match's projected value slice in the values body. */
    kWantValues = 1u << 2,
};

/** Response flag bits. */
enum ResponseFlags : std::uint16_t {
    /** The compiled automaton came from the cache (no compile ran). */
    kCacheHit = 1u << 0,
    /** A values body follows the header (the request set kWantValues). */
    kHasValues = 1u << 1,
    /** The values body was cut at the server's projection cap; it holds a
     *  document-order prefix of the match set's values. */
    kValuesTruncated = 1u << 2,
};

/**
 * Protocol-level outcome of one request. kOk means the frame was valid
 * and an engine run happened — its own outcome is the response's
 * engine_code/engine_offset (the EngineStatus taxonomy). Everything else
 * classifies why the request never reached an engine.
 */
enum class ServeStatus : std::uint16_t {
    kOk = 0,
    /** The frame did not start with kRequestMagic. */
    kBadMagic = 1,
    /** Unsupported protocol version. */
    kBadVersion = 2,
    /** Unknown RequestMode value. */
    kBadMode = 3,
    /** Nonzero reserved field (a future extension this version lacks). */
    kBadReserved = 4,
    /** query_len exceeds the server's query size cap. */
    kQueryTooLarge = 5,
    /** body_len exceeds the server's body size cap. */
    kBodyTooLarge = 6,
    /** The connection ended mid-frame. */
    kTruncatedFrame = 7,
    /** The query text failed to parse or compile. */
    kBadQuery = 8,
    /** The server is draining and no longer accepts work. */
    kShuttingDown = 9,
    /** Unexpected server-side failure. */
    kInternal = 10,
};

inline constexpr std::size_t kServeStatusCount =
    static_cast<std::size_t>(ServeStatus::kInternal) + 1;

/** Stable wire/report name of a serve status. */
constexpr const char* serve_status_name(ServeStatus status) noexcept
{
    switch (status) {
        case ServeStatus::kOk: return "ok";
        case ServeStatus::kBadMagic: return "bad magic";
        case ServeStatus::kBadVersion: return "bad version";
        case ServeStatus::kBadMode: return "bad mode";
        case ServeStatus::kBadReserved: return "bad reserved field";
        case ServeStatus::kQueryTooLarge: return "query too large";
        case ServeStatus::kBodyTooLarge: return "body too large";
        case ServeStatus::kTruncatedFrame: return "truncated frame";
        case ServeStatus::kBadQuery: return "bad query";
        case ServeStatus::kShuttingDown: return "shutting down";
        case ServeStatus::kInternal: return "internal error";
    }
    return "unknown";
}

/** One decoded request. Strings own their bytes — a Request outlives the
 *  connection buffer it was decoded from. */
struct Request {
    RequestMode mode = RequestMode::kSingle;
    std::uint32_t flags = 0;
    /** 0 = server default; otherwise clamped to the tenant cap. */
    std::uint32_t deadline_ms = 0;
    /** 0 = server default. */
    std::uint32_t max_depth = 0;
    /** 0 = server default. */
    std::uint64_t max_matches = 0;
    /** Query text; newline-separated set under RequestMode::kMulti. */
    std::string query;
    /** Document (or NDJSON stream) bytes. */
    std::string body;

    bool want_offsets() const noexcept { return (flags & kWantOffsets) != 0; }
    bool want_stats() const noexcept { return (flags & kWantStats) != 0; }
    bool want_values() const noexcept { return (flags & kWantValues) != 0; }
};

/** One decoded (or to-be-encoded) response. */
struct Response {
    ServeStatus serve_status = ServeStatus::kOk;
    /** Engine-run outcome; {kOk, 0} when no engine ran. */
    EngineStatus engine_status;
    std::uint16_t flags = 0;
    std::uint64_t match_count = 0;
    /** Present only when the request set kWantOffsets. */
    std::vector<std::uint64_t> offsets;
    /** Projected value slices (byte-verbatim subtrees), present only when
     *  the request set kWantValues; a document-order prefix when
     *  kValuesTruncated is set. */
    std::vector<std::string> values;
    /** Obs JSON; present only when the request set kWantStats. */
    std::string stats_json;

    bool cache_hit() const noexcept { return (flags & kCacheHit) != 0; }
    bool has_values() const noexcept { return (flags & kHasValues) != 0; }
    bool values_truncated() const noexcept
    {
        return (flags & kValuesTruncated) != 0;
    }
    bool ok() const noexcept
    {
        return serve_status == ServeStatus::kOk && engine_status.ok();
    }
};

/** Serializes @p request into wire bytes (header + query + body). */
std::vector<std::uint8_t> encode_request(const Request& request);

/** Serializes @p response into wire bytes. */
std::vector<std::uint8_t> encode_response(const Response& response);

/**
 * Size caps enforced while *decoding* (the server's admission limits;
 * the defaults are what loopback tests and the fuzzer use). Both caps
 * are checked from the fixed header before any payload is buffered.
 */
struct FrameLimits {
    std::size_t max_query_bytes = std::size_t{64} << 10;
    std::size_t max_body_bytes = std::size_t{64} << 20;
};

/**
 * Incremental request decoder: feed() bytes as they arrive (any chunking),
 * poll take_request() / error() after each feed. One FrameReader serves
 * one connection; after a frame completes, the reader resets itself and
 * decodes the next frame from any leftover bytes.
 *
 * Errors are sticky: once a frame violates the protocol the reader stays
 * in the error state (the connection is poisoned — the server responds
 * with the structured status and closes). finish() signals end-of-input,
 * turning an incomplete buffered frame into kTruncatedFrame.
 */
class FrameReader {
public:
    explicit FrameReader(FrameLimits limits = {}) : limits_(limits) {}

    /** State after a feed() / finish(). */
    enum class State : std::uint8_t {
        /** Mid-frame; feed more bytes. */
        kNeedMore,
        /** A full request is ready — collect it with take_request(). */
        kReady,
        /** Protocol violation; error() names it. Sticky. */
        kError,
    };

    /** Consumes @p size bytes from the wire. Returns the reader state. */
    State feed(const std::uint8_t* data, std::size_t size);

    /** Signals end-of-input: an incomplete frame becomes kTruncatedFrame;
     *  between frames this is a clean no-op (state stays kNeedMore). */
    State finish();

    State state() const noexcept { return state_; }

    /** The violation (valid only in the kError state). */
    ServeStatus error() const noexcept { return error_; }

    /**
     * Moves the decoded request out and starts decoding the next frame
     * from any already-buffered leftover bytes — after which the state is
     * kReady again if those bytes held another full frame.
     */
    Request take_request();

private:
    State fail(ServeStatus status) noexcept
    {
        state_ = State::kError;
        error_ = status;
        return state_;
    }

    /** Attempts to decode buffer_; advances state. */
    void parse();

    FrameLimits limits_;
    std::vector<std::uint8_t> buffer_;
    Request pending_;
    State state_ = State::kNeedMore;
    ServeStatus error_ = ServeStatus::kOk;
    /** Total frame size once the header is parsed; 0 before that. */
    std::size_t frame_size_ = 0;
};

/**
 * One-shot response decoder for clients (the bench load generator and the
 * tests). Returns false when @p data does not hold a complete, valid
 * response frame at @p consumed == 0; on success sets @p consumed to the
 * frame's size so pipelined responses can be decoded back-to-back.
 *
 * When @p limits is non-null, the values body is admission-checked from
 * its length prefix before any value is buffered: a body_len above
 * limits->max_body_bytes rejects the frame, mirroring the request-side
 * header checks.
 */
bool decode_response(const std::uint8_t* data, std::size_t size,
                     Response& response, std::size_t& consumed,
                     const FrameLimits* limits = nullptr);

}  // namespace descend::serve
