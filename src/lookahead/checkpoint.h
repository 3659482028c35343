// Binary serialization of WorldState for on-disk checkpoints.
//
// Encoding: a magic/version header, then every WorldState field in
// declaration order — trivially-copyable leaves as raw bytes, vectors with a
// u64 length prefix, optionals with a u8 engaged prefix. The format is
// deliberately NOT portable across builds: a checkpoint is only valid for
// the same binary, the same (ScenarioConfig, PolicySpec, seed) triple, and
// the same platform, which is exactly the restart/branching use case the
// lookahead subsystem needs. Telemetry is excluded (a restored-from-disk run
// re-records from the restore point); in-memory snapshots keep it.
//
// Errors (bad magic, truncated stream, trailing bytes) throw
// std::runtime_error with a description.
#pragma once

#include <iosfwd>
#include <string>

#include "lookahead/world_state.h"

namespace cloudprov {

void write_checkpoint(std::ostream& out, const WorldState& state);
WorldState read_checkpoint(std::istream& in);

/// Zeroes the padding inside `state`'s raw leaves, and the payload of its
/// disengaged raw optionals, so that equal states encode to equal bytes.
/// World::snapshot() calls it. The codec never does: a decoded file keeps
/// its padding and re-encodes byte for byte.
void clear_padding(WorldState& state);

/// File wrappers; throw std::runtime_error when the path cannot be opened.
void write_checkpoint_file(const std::string& path, const WorldState& state);
WorldState read_checkpoint_file(const std::string& path);

}  // namespace cloudprov
