// Package rpc puts core.Runner sessions on the wire: a line-oriented
// JSON-RPC 2.0 protocol served over stdio (full duplex, one message per
// line) and streamable HTTP (one POST per request batch, notifications
// streamed on the response). The Server is the long-lived daemon side —
// a session registry that single-flights study submissions by spec hash
// and forwards core.Session event streams as notifications, with
// reattach-after-disconnect via the sessions' sequence-numbered replay
// ring. The Client is the matching minimal HTTP client the CLI's client
// mode and the CI smoke ride.
//
// The protocol surface (see ARCHITECTURE.md "Study service" for the
// full table):
//
//	initialize        capability/version handshake (required first on stdio)
//	study.submit      spec text in, session ID out; single-flight by spec hash
//	study.subscribe   event stream as study.event notifications, resuming
//	                  after a sequence cursor; the response reports the
//	                  events the cursor can no longer reach (missed)
//	study.unsubscribe stop this connection's stream for a session
//	study.progress    plan completion counters and session state
//	study.cancel      cooperative cancellation
//	store.inventory   the result store's sync manifest: digests + refs
//	store.fetch       one blob chunk out (base64; loop offsets until eof)
//	store.put         one blob chunk in (chunks of one digest arrive in
//	                  order on one connection; last=true verifies + stores)
//	store.refs        reconcile a ref batch last-writer-wins
//	shutdown          graceful drain (per the server's policy), then quit
//
// The store.* family is the wire form of internal/store's digest-exchange
// sync (store.Peer): a running daemon is also a sync hub.
package rpc

import (
	"encoding/json"
	"fmt"

	"cloudhpc/internal/core"
)

// ProtocolVersion is the protocol revision this server and client speak.
// initialize negotiates it: a client requesting an unsupported version
// is refused with CodeInvalidParams and the supported list.
const ProtocolVersion = "1"

// maxLineBytes bounds one framed message. Untrusted callers submit spec
// text in-band, so the bound is generous for specs but small enough that
// a hostile line cannot balloon server memory.
const maxLineBytes = 4 << 20

// JSON-RPC 2.0 error codes: the spec-defined range plus this protocol's
// server-defined codes.
const (
	CodeParse          = -32700 // line is not valid JSON
	CodeInvalidRequest = -32600 // not a JSON-RPC 2.0 request object
	CodeMethodNotFound = -32601
	CodeInvalidParams  = -32602
	CodeInternal       = -32603
	CodeUnknownSession = -32001 // session ID not in the registry
	CodeNotInitialized = -32002 // request before initialize (stdio)
	CodeShuttingDown   = -32003 // submit after shutdown began
	CodeNoStore        = -32004 // store.* method on a daemon without a result store
	// -32005..-32008 belonged to the retired fleet.* worker family; they
	// are not to be reused, so an old worker's error handling can never
	// misread a new meaning.
)

// request is one incoming JSON-RPC 2.0 message. A missing ID marks a
// client notification: it is executed but never answered.
type request struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id,omitempty"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params,omitempty"`
}

// response is one outgoing reply. Exactly one of Result and Error is
// set; ID echoes the request's (null for unparseable requests).
type response struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Result  any             `json:"result,omitempty"`
	Error   *Error          `json:"error,omitempty"`
}

// notification is one outgoing server-initiated message (study.event).
type notification struct {
	JSONRPC string `json:"jsonrpc"`
	Method  string `json:"method"`
	Params  any    `json:"params"`
}

// Error is a JSON-RPC 2.0 error object.
type Error struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
	Data    any    `json:"data,omitempty"`
}

func (e *Error) Error() string { return fmt.Sprintf("rpc error %d: %s", e.Code, e.Message) }

func errf(code int, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// Implementation identifies one endpoint in the initialize handshake.
type Implementation struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// InitializeParams is the client half of the handshake.
type InitializeParams struct {
	ProtocolVersion string         `json:"protocolVersion"`
	Client          Implementation `json:"client,omitempty"`
}

// InitializeResult is the server half: the negotiated version and what
// the study surface supports.
type InitializeResult struct {
	ProtocolVersion string         `json:"protocolVersion"`
	Capabilities    Capabilities   `json:"capabilities"`
	ServerInfo      Implementation `json:"serverInfo"`
}

// Capabilities advertises the study surface, whether the store.* sync
// family is available (false when the daemon runs without a result
// store), and the server's drain policy for shutdown. Fleet is always
// false: this daemon serves no fleet.* family (those methods answer
// CodeMethodNotFound); the field stays so the handshake's bytes do not
// change for clients that read it.
type Capabilities struct {
	Study StudyCapabilities `json:"study"`
	Store bool              `json:"store"`
	Fleet bool              `json:"fleet"`
	Drain string            `json:"drain"`
}

// StudyCapabilities describes the study method family. Replay is the
// per-session replay-ring bound: a reattaching subscriber whose cursor
// is within the last Replay events misses nothing.
type StudyCapabilities struct {
	Subscribe    bool `json:"subscribe"`
	Replay       int  `json:"replay"`
	Cancel       bool `json:"cancel"`
	SingleFlight bool `json:"singleFlight"`
}

// SubmitParams carries a study spec in the spec-file syntax
// (core.ParseSpec) — the same text a -spec file holds.
type SubmitParams struct {
	Spec string `json:"spec"`
}

// SubmitResult names the session executing the submitted spec. Created
// is false when the spec hash was already registered: the caller shares
// the existing execution (single-flight), and its session ID.
type SubmitResult struct {
	Session  string `json:"session"`
	SpecHash string `json:"specHash"`
	Created  bool   `json:"created"`
}

// SubscribeParams attaches this connection to a session's event stream,
// resuming after the After sequence cursor (0 = from the beginning).
type SubscribeParams struct {
	Session string `json:"session"`
	After   uint64 `json:"after,omitempty"`
}

// SubscribeResult acknowledges the attach. Missed counts the events
// after the cursor that were evicted from the bounded replay ring before
// the attach and can never be delivered; 0 means the stream that follows
// is exactly the continuation of what the cursor saw.
type SubscribeResult struct {
	Session string `json:"session"`
	After   uint64 `json:"after"`
	Missed  uint64 `json:"missed"`
}

// SessionParams names a session (study.progress, study.cancel,
// study.unsubscribe).
type SessionParams struct {
	Session string `json:"session"`
}

// UnsubscribeResult reports whether a stream was actually detached.
type UnsubscribeResult struct {
	Session      string `json:"session"`
	Unsubscribed bool   `json:"unsubscribed"`
}

// ProgressResult is a session's plan completion and lifecycle state:
// "running", "done", "cancelled", or "failed" (Err carries the failure).
// Seq is the stream's sequence high-water mark, Lost the events evicted
// from the replay ring, Dropped the events lost to stalled subscribers.
type ProgressResult struct {
	Session string `json:"session"`
	State   string `json:"state"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
	Seq     uint64 `json:"seq"`
	Lost    uint64 `json:"lost"`
	Dropped int64  `json:"dropped"`
	Err     string `json:"err,omitempty"`
}

// CancelResult acknowledges a cancellation request. Cancelled is false
// when the session had already completed.
type CancelResult struct {
	Session   string `json:"session"`
	Cancelled bool   `json:"cancelled"`
}

// ShutdownResult acknowledges a graceful shutdown: it is sent after the
// drain completes, so receiving it means every session has finished (or
// was cancelled, per the drain policy) and the store is quiescent.
// Health is the server's final health report — the same structure GET
// /healthz serves — snapshotted post-drain, so `serve -stop` can print
// the daemon's closing tallies.
type ShutdownResult struct {
	OK     bool    `json:"ok"`
	Health *Health `json:"health,omitempty"`
}

// StoreInventoryResult is store.inventory's reply: the result store's
// sync manifest — every servable blob digest plus the ref set (refs
// whose target blob is unservable are withheld; see
// store.TakeInventory).
type StoreInventoryResult struct {
	Digests []string          `json:"digests"`
	Refs    map[string]string `json:"refs"`
}

// StoreFetchParams asks for one chunk of a blob, starting at Offset.
// The caller loops, advancing Offset by the bytes received, until EOF.
type StoreFetchParams struct {
	Digest string `json:"digest"`
	Offset int64  `json:"offset,omitempty"`
}

// StoreFetchResult carries one blob chunk: up to syncChunkBytes of
// payload, base64-encoded so a chunk line stays under the framing cap.
// EOF marks the chunk that reaches the end of the blob.
type StoreFetchResult struct {
	Digest string `json:"digest"`
	Size   int64  `json:"size"`
	Offset int64  `json:"offset"`
	Data   string `json:"data"`
	EOF    bool   `json:"eof"`
}

// StorePutParams carries one inbound blob chunk. Chunks of one digest
// must arrive in offset order on one connection (the server stages them
// per connection); Last finalizes the upload — the assembled bytes are
// verified against Digest before anything is stored, so a store can
// never be handed content that does not match its name.
type StorePutParams struct {
	Digest string `json:"digest"`
	Offset int64  `json:"offset,omitempty"`
	Data   string `json:"data,omitempty"`
	Last   bool   `json:"last,omitempty"`
}

// StorePutResult acknowledges a chunk. Stored is true once the blob is
// durably in the store — only on the Last chunk's reply, after the
// assembled content verified against its digest.
type StorePutResult struct {
	Digest string `json:"digest"`
	Stored bool   `json:"stored"`
}

// StoreRefsParams is a ref batch to reconcile last-writer-wins: each
// name is pointed at its digest, overwriting whatever the name held.
type StoreRefsParams struct {
	Refs map[string]string `json:"refs"`
}

// StoreRefsResult reports the reconciliation: Applied names now carry
// the requested digest; Skipped names were withheld because the store
// does not hold their target blob (a ref must never outrun its
// content).
type StoreRefsResult struct {
	Applied int `json:"applied"`
	Skipped int `json:"skipped"`
}

// StudyEvent is one core.Event on the wire, the params of a study.event
// notification. Field presence follows the event kind exactly as
// core.Event documents; Err and Incident are rendered to strings.
type StudyEvent struct {
	Session  string `json:"session"`
	Seq      uint64 `json:"seq"`
	Kind     string `json:"kind"`
	Env      string `json:"env,omitempty"`
	App      string `json:"app,omitempty"`
	Tier     string `json:"tier,omitempty"`
	Err      string `json:"err,omitempty"`
	Incident string `json:"incident,omitempty"`
	Done     int    `json:"done,omitempty"`
	Total    int    `json:"total,omitempty"`
}

// Health is the daemon's structured health report: GET /healthz's body
// and ShutdownResult's closing snapshot. Status is "ok" while the
// server accepts submissions and "draining" once shutdown began.
type Health struct {
	Status   string        `json:"status"`
	Sessions SessionCounts `json:"sessions"`
	Store    bool          `json:"store"`
	// StoreStats, present when a result store is attached, is its
	// accounting — including CorruptFallbacks, the artifacts found
	// unreadable and recomputed instead.
	StoreStats *core.StoreStats `json:"storeStats,omitempty"`
	Server     Implementation   `json:"server"`
}

// SessionCounts tallies the registry by lifecycle state.
type SessionCounts struct {
	Total     int `json:"total"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Cancelled int `json:"cancelled"`
	Failed    int `json:"failed"`
}
