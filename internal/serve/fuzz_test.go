package serve

import (
	"encoding/base64"
	"errors"
	"testing"

	"ccl/internal/cclerr"
)

// FuzzWorkloadSpec holds the spec decoder to its contract: no input,
// however hostile, may panic it, and every rejection must be a typed
// cclerr (so the server can map it to an HTTP status and a class).
// Accepted inputs must additionally survive Injector(), the derived
// operation admission performs.
func FuzzWorkloadSpec(f *testing.F) {
	// The corpus seeds the interesting regions: valid specs, every
	// rejection family, and byte noise.
	f.Add([]byte(`{"schema":"ccl-serve/v1","tenant":"acme","experiments":["table1"]}`))
	f.Add([]byte(`{"schema":"ccl-serve/v1","tenant":"acme","experiments":["table2","control"],"full":true,"seed":42}`))
	f.Add([]byte(`{"schema":"ccl-serve/v1","tenant":"a-b_c","experiments":["control"],"fault":"serve-stream:2,arena-grow","deadline_ms":1000,"budget_bytes":65536}`))
	f.Add([]byte(`{"schema":"ccl-serve/v1","tenant":"acme","trace_b64":"` +
		base64.StdEncoding.EncodeToString([]byte("ccltrc\x00\x01")) + `"}`))
	f.Add([]byte(`{"schema":"ccl-serve/v2","tenant":"acme","experiments":["table1"]}`))
	f.Add([]byte(`{"schema":"ccl-serve/v1","tenant":"UPPER","experiments":["table1"]}`))
	f.Add([]byte(`{"schema":"ccl-serve/v1","tenant":"acme"}`))
	f.Add([]byte(`{"schema":"ccl-serve/v1","tenant":"acme","experiments":["nope"]}`))
	f.Add([]byte(`{"schema":"ccl-serve/v1","tenant":"acme","experiments":["table1"],"fault":"serve-stream:-1"}`))
	f.Add([]byte(`{"schema":"ccl-serve/v1","tenant":"acme","experiments":["table1"],"deadline_ms":-5}`))
	f.Add([]byte(`{"schema":"ccl-serve/v1","tenant":"acme","experiments":["table1"],"unknown":1}`))
	f.Add([]byte(`{"schema":"ccl-serve/v1","tenant":"acme","trace_b64":"!!notb64!!"}`))
	f.Add([]byte(`{"schema":"ccl-serve/v1","tenant":"acme","trace_b64":"` +
		base64.StdEncoding.EncodeToString(overflowUpload()) + `"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"schema"`))
	f.Add([]byte("\x00\x01\x02\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseSpec(data)
		if err != nil {
			if req != nil {
				t.Fatal("rejected input returned a non-nil request")
			}
			if cclerr.Class(err) == "" {
				t.Fatalf("untyped rejection: %v", err)
			}
			if !errors.Is(err, cclerr.ErrInvalidArg) && !errors.Is(err, cclerr.ErrCorruptTrace) {
				t.Fatalf("rejection outside the decoder's error contract: %v", err)
			}
			return
		}
		// Accepted specs must survive the derived operation.
		if req.Injector() == nil {
			t.Fatal("accepted spec produced a nil injector")
		}
	})
}
