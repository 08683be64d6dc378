// Persistence for explanation views: generated views can be saved and
// reloaded, so the queryable store survives across sessions (views as
// materialized database objects — the view-based paradigm of §2.1).

#ifndef GVEX_EXPLAIN_VIEW_IO_H_
#define GVEX_EXPLAIN_VIEW_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "explain/explanation.h"
#include "util/status.h"

namespace gvex {

/// Serializes one explanation view (patterns + subgraphs + metadata).
std::string SerializeView(const ExplanationView& view);

/// Parses one or more views serialized by SerializeView.
Result<std::vector<ExplanationView>> ParseViews(std::string_view text);

/// File round-trip helpers.
Status SaveViews(const std::string& path,
                 const std::vector<ExplanationView>& views);
Result<std::vector<ExplanationView>> LoadViews(const std::string& path);

// --- Binary counterparts -------------------------------------------------
// The CRC-framed binary codec of the durable store (store/codec.h):
// versioned header, checksummed records, bit-identical double round trips.
// Declared here next to the text entry points; implemented by the store
// module — link gvex_store (gvex_serve pulls it in transitively) to use
// them. Binary view files start with the 4-byte magic "GVXS", so loaders
// can sniff the format.

/// Serializes views into one self-contained binary file image.
std::string SerializeViewsBinary(const std::vector<ExplanationView>& views);

/// Parses a SerializeViewsBinary image. Corrupt or truncated input returns
/// an error — never a partial view list.
Result<std::vector<ExplanationView>> ParseViewsBinary(const std::string& bytes);

/// File round-trip helpers for the binary format. Saves replace the file
/// atomically (util/file_io.h AtomicWriteFile).
Status SaveViewsBinary(const std::string& path,
                       const std::vector<ExplanationView>& views);
Result<std::vector<ExplanationView>> LoadViewsBinary(const std::string& path);

/// Loads a view file in either format: a file that starts with the binary
/// magic goes to LoadViewsBinary, anything else parses as text.
Result<std::vector<ExplanationView>> LoadViewsAnyFormat(
    const std::string& path);

}  // namespace gvex

#endif  // GVEX_EXPLAIN_VIEW_IO_H_
