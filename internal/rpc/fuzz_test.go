package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"cloudhpc/internal/core"
	"cloudhpc/internal/store"
)

// FuzzRPCDecode throws arbitrary bytes at the per-line framing and
// arbitrary text at the study.submit spec payload. Whatever arrives, the
// server must not panic, must keep the connection's framing intact, and
// every line it writes back must be a well-formed JSON-RPC 2.0 message.
// The conversation always ends with a shutdown under the cancel drain
// policy, so a fuzzed line that manages to start a real study is
// cancelled rather than executed to completion.
func FuzzRPCDecode(f *testing.F) {
	f.Add(`{"jsonrpc":"2.0","id":7,"method":"study.progress","params":{"session":"S1"}}`, "seed 1\nenvs google-gke-cpu\nscales 2\niterations 1\nworkers 1\n")
	f.Add(`{"jsonrpc":"2.0","id":8,"method":"study.subscribe","params":{"session":"S1","after":2}}`, "seed 2\n")
	f.Add(`{"jsonrpc":"2.0","method":"study.cancel","params":{"session":"S1"}}`, "bogus directive")
	f.Add(`{"jsonrpc":"2.0","id":1,"method":"initialize","params":{"protocolVersion":"99"}}`, "")
	f.Add("\x00\x01\x02{}[]", "iterations 0")
	f.Add(`{"jsonrpc":"2.0","id":[1,2],"method":"shutdown"}`, "envs *")
	f.Add(`{"id":3}`, strings.Repeat("#", 100))
	f.Add(`{"jsonrpc":"2.0","id":9,"method":"study.submit","params":{"spec":9}}`, "seed 3\nseed 4")
	f.Fuzz(func(t *testing.T, line, spec string) {
		srv := &Server{Drain: DrainCancel}
		params, err := json.Marshal(SubmitParams{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		submitLine, err := json.Marshal(request{JSONRPC: "2.0", ID: json.RawMessage(`2`), Method: "study.submit", Params: params})
		if err != nil {
			t.Fatal(err)
		}
		var in bytes.Buffer
		in.WriteString(initLine + "\n")
		in.Write(append(submitLine, '\n'))
		in.WriteString(line + "\n")
		in.WriteString(`{"jsonrpc":"2.0","id":99,"method":"shutdown"}` + "\n")

		var out bytes.Buffer
		// ServeConn returns only after every forwarder has unwound, so
		// reading out afterwards is race-free.
		if err := srv.ServeConn(context.Background(), &in, &out); err != nil && !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("serve: %v", err)
		}
		// A fuzzed shutdown line can end the connection before the
		// scripted one; drain regardless so no study outlives the test.
		srv.Shutdown()

		for _, ln := range bytes.Split(out.Bytes(), []byte("\n")) {
			ln = bytes.TrimSpace(ln)
			if len(ln) == 0 {
				continue
			}
			var msg struct {
				JSONRPC string          `json:"jsonrpc"`
				Method  string          `json:"method"`
				ID      json.RawMessage `json:"id"`
				Result  json.RawMessage `json:"result"`
				Error   *Error          `json:"error"`
			}
			if err := json.Unmarshal(ln, &msg); err != nil {
				t.Fatalf("server wrote an unparseable line %q: %v", ln, err)
			}
			if msg.JSONRPC != "2.0" {
				t.Fatalf("server wrote a non-2.0 line %q", ln)
			}
			if msg.Method == "" && msg.Result == nil && msg.Error == nil {
				t.Fatalf("server wrote a line that is neither response nor notification: %q", ln)
			}
		}
	})
}

// FuzzFleetDecode throws arbitrary bytes shaped like the retired fleet.*
// worker family at a daemon that no longer serves it: whatever an old
// worker sends, the daemon must not panic, must never plant a unit
// artifact, must answer a fleet.* request only with CodeMethodNotFound,
// and every reply line must be well-formed JSON-RPC 2.0.
func FuzzFleetDecode(f *testing.F) {
	f.Add(`{"jsonrpc":"2.0","id":5,"method":"fleet.register","params":{"protocolVersion":"1","worker":{"name":"w","version":"1"}}}`)
	f.Add(`{"jsonrpc":"2.0","id":6,"method":"fleet.register","params":{"protocolVersion":"99"}}`)
	f.Add(`{"jsonrpc":"2.0","id":7,"method":"fleet.claim","params":{"worker":"W1","waitMs":9007199254740993}}`)
	f.Add(`{"jsonrpc":"2.0","id":8,"method":"fleet.claim","params":{"worker":"","waitMs":-5}}`)
	f.Add(`{"jsonrpc":"2.0","id":9,"method":"fleet.heartbeat","params":{"worker":"W1","lease":"L1"}}`)
	f.Add(`{"jsonrpc":"2.0","id":10,"method":"fleet.complete","params":{"worker":"W1","lease":"L1","key":"k","manifest":"sha256:ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"}}`)
	f.Add(`{"jsonrpc":"2.0","id":11,"method":"fleet.complete","params":{"worker":"W1","lease":"L1","key":"","manifest":"../../etc/passwd"}}`)
	f.Add(`{"jsonrpc":"2.0","id":12,"method":"fleet.nack","params":{"worker":7,"lease":[]}}`)
	f.Add(`{"jsonrpc":"2.0","method":"fleet.complete","params":"not an object"}`)
	f.Fuzz(func(t *testing.T, line string) {
		bs := store.NewMemory()
		rs := core.NewResultStore(bs)
		srv := &Server{Drain: DrainCancel, Runner: &core.Runner{Store: rs}}
		var in bytes.Buffer
		in.WriteString(initLine + "\n")
		in.WriteString(line + "\n")
		in.WriteString(`{"jsonrpc":"2.0","id":99,"method":"shutdown"}` + "\n")

		var out bytes.Buffer
		if err := srv.ServeConn(context.Background(), &in, &out); err != nil && !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("serve: %v", err)
		}
		srv.Shutdown()

		// No fuzzed line can plant a unit ref: no real unit was ever
		// computed here, so the ref table must hold no "unit/" refs —
		// the namespace a real study's units land in, which
		// TestHealthReportsStoreFallbacks pins.
		for name := range rs.Registry().SyncInventory().Refs {
			if strings.HasPrefix(name, "unit/") {
				t.Fatalf("fuzzed input planted a unit ref %q", name)
			}
		}
		// A fleet.* request that reaches dispatch whole must be answered
		// as an unknown method.
		var req request
		wantNotFound := !strings.ContainsAny(line, "\r\n") && json.Unmarshal([]byte(line), &req) == nil &&
			req.JSONRPC == "2.0" && req.ID != nil && strings.HasPrefix(req.Method, "fleet.")
		notFound := false

		for _, ln := range bytes.Split(out.Bytes(), []byte("\n")) {
			ln = bytes.TrimSpace(ln)
			if len(ln) == 0 {
				continue
			}
			var msg struct {
				JSONRPC string          `json:"jsonrpc"`
				Method  string          `json:"method"`
				ID      json.RawMessage `json:"id"`
				Result  json.RawMessage `json:"result"`
				Error   *Error          `json:"error"`
			}
			if err := json.Unmarshal(ln, &msg); err != nil {
				t.Fatalf("server wrote an unparseable line %q: %v", ln, err)
			}
			if msg.JSONRPC != "2.0" {
				t.Fatalf("server wrote a non-2.0 line %q", ln)
			}
			if msg.Method == "" && msg.Result == nil && msg.Error == nil {
				t.Fatalf("server wrote a line that is neither response nor notification: %q", ln)
			}
			if msg.Error != nil && msg.Error.Code <= -32005 && msg.Error.Code >= -32008 {
				t.Fatalf("server answered with retired fleet error code: %q", ln)
			}
			notFound = notFound || (msg.Error != nil && msg.Error.Code == CodeMethodNotFound)
		}
		if wantNotFound && !notFound {
			t.Fatalf("fleet request %q was not answered with code %d:\n%s", line, CodeMethodNotFound, out.Bytes())
		}
	})
}

// FuzzSyncDecode throws arbitrary bytes at the store.* wire handlers:
// whatever a hostile sync peer sends — malformed digests, bad base64,
// impossible offsets, ref batches at phantom blobs — the daemon must
// not panic, must never store content that does not hash to its name,
// and every reply line must be well-formed JSON-RPC 2.0.
func FuzzSyncDecode(f *testing.F) {
	f.Add(`{"jsonrpc":"2.0","id":5,"method":"store.inventory"}`)
	f.Add(`{"jsonrpc":"2.0","id":6,"method":"store.fetch","params":{"digest":"sha256:ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"}}`)
	f.Add(`{"jsonrpc":"2.0","id":7,"method":"store.fetch","params":{"digest":"../../etc/passwd","offset":-4}}`)
	f.Add(`{"jsonrpc":"2.0","id":8,"method":"store.put","params":{"digest":"sha256:ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff","data":"AAAA","last":true}}`)
	f.Add(`{"jsonrpc":"2.0","id":9,"method":"store.put","params":{"digest":"sha256:ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff","offset":7,"data":"!!!not base64!!!"}}`)
	f.Add(`{"jsonrpc":"2.0","id":10,"method":"store.refs","params":{"refs":{"":"sha256:00","study/x":"nope"}}}`)
	f.Add(`{"jsonrpc":"2.0","id":11,"method":"store.refs","params":{"refs":7}}`)
	f.Add(`{"jsonrpc":"2.0","method":"store.put","params":{"digest":"sha256:ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff","offset":9007199254740993,"data":""}}`)
	f.Fuzz(func(t *testing.T, line string) {
		bs := store.NewMemory()
		srv := &Server{Drain: DrainCancel, Runner: &core.Runner{Store: core.NewResultStore(bs)}}
		var in bytes.Buffer
		in.WriteString(initLine + "\n")
		in.WriteString(line + "\n")
		in.WriteString(`{"jsonrpc":"2.0","id":99,"method":"shutdown"}` + "\n")

		var out bytes.Buffer
		if err := srv.ServeConn(context.Background(), &in, &out); err != nil && !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("serve: %v", err)
		}
		srv.Shutdown()

		// Content addressing must hold whatever got through: every stored
		// blob hashes to its advertised digest.
		for _, d := range bs.Digests() {
			data, err := bs.Get(d)
			if err != nil {
				t.Fatalf("stored blob unreadable: %v", err)
			}
			if store.DigestOf(data) != d {
				t.Fatalf("stored content does not hash to its name %s", d)
			}
		}

		for _, ln := range bytes.Split(out.Bytes(), []byte("\n")) {
			ln = bytes.TrimSpace(ln)
			if len(ln) == 0 {
				continue
			}
			var msg struct {
				JSONRPC string          `json:"jsonrpc"`
				Method  string          `json:"method"`
				ID      json.RawMessage `json:"id"`
				Result  json.RawMessage `json:"result"`
				Error   *Error          `json:"error"`
			}
			if err := json.Unmarshal(ln, &msg); err != nil {
				t.Fatalf("server wrote an unparseable line %q: %v", ln, err)
			}
			if msg.JSONRPC != "2.0" {
				t.Fatalf("server wrote a non-2.0 line %q", ln)
			}
			if msg.Method == "" && msg.Result == nil && msg.Error == nil {
				t.Fatalf("server wrote a line that is neither response nor notification: %q", ln)
			}
		}
	})
}
