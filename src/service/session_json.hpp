// SessionSpec / SessionResult <-> JSON: the wire representation shared
// by the HTTP API server, the `tune remote` client and the tests.
//
// One serializer on both sides is what makes the end-to-end determinism
// check meaningful: a trace serialized by the server and one serialized
// locally from run_inline of the same spec must be byte-identical, so
// the encoding (key order via JsonObject's sorted map, number formatting
// via common::Json) lives here and nowhere else.
//
// Deserialization is strict: unknown keys are an error (a misspelled
// "budjet" must not silently run a 150-evaluation default session),
// wrong types are an error, all fields are optional with the
// SessionSpec defaults.
#pragma once

#include "common/json.hpp"
#include "service/session.hpp"

namespace bat::service {

/// {"kernel","tuner","device","budget","seed","backend"} — always all
/// six keys, so specs echo back complete even where defaults applied.
[[nodiscard]] common::Json to_json(const SessionSpec& spec);

/// Strict inverse; throws std::invalid_argument on unknown keys or a
/// backend other than "live"/"replay" (check_backend) and
/// common::JsonTypeError on type mismatches.
[[nodiscard]] SessionSpec spec_from_json(const common::Json& json);

/// {"spec","status","error","wall_ms","evaluations","best","trace",
///  "cancelled"}; "trace" (array of {"index","objective"}) is included
/// when `include_trace` — status polls don't need the full history.
[[nodiscard]] common::Json to_json(const SessionResult& result,
                                   bool include_trace = true);

}  // namespace bat::service
