package ctlplane

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/runtime"
)

// FuzzWireCodecVsJSON holds the poll messages' hand-written codec to
// encoding/json, its oracle. For messages built from the fuzzed scalars the
// encoder must write json.Marshal's bytes (and refuse what json.Marshal
// refuses), and the parser must read json.Marshal's output back to
// json.Unmarshal's value, every float bit included. On the raw fuzzed bytes
// the parser must not panic, and whatever it accepts json.Unmarshal must
// accept too, with an equal value. One warm decoder and warm targets serve
// every parse, so state left from one message cannot leak into the next.
func FuzzWireCodecVsJSON(f *testing.F) {
	msgs := [][]byte{
		[]byte(`{"epoch":3,"version":9,"specs":[{"Name":"cam0","Period":0.2,"Offset":0,"Proc":0.01,"Bits":100000}],"server_spec":{"Name":"","Uplink":10000000,"SpeedFactor":0},"horizon":30}`),
		[]byte(`{"no_work":true,"epoch":0,"version":0,"specs":null,"server_spec":{"Name":"","Uplink":0,"SpeedFactor":0},"horizon":0}`),
		[]byte(`{"server":2,"incarnation":7,"wait_ms":1000,"done":{"epoch":3,"version":9,"reject":"period 0","result":{"LatSum":1.5,"Frames":3,"MaxJitter":0.25}}}`),
		[]byte(` { "server" : 1 , "incarnation":1,"done":null } `),
		[]byte(`{"server":1,"server":2}`),
		[]byte(`{"server":1,"Server":2}`),
		[]byte(`{"epoch":-1,"version":0,"specs":[],"server_spec":{"Name":"\ud834\udd1e\u00e9\ud800x\/","Uplink":-0,"SpeedFactor":1E-400},"horizon":2.5e-7}`),
		[]byte(`{"epoch":1e2,"version":-0,"specs":[],"server_spec":{"Name":"","Uplink":0,"SpeedFactor":0},"horizon":1e400}`),
		[]byte("{\"epoch\":0,\"version\":0,\"specs\":[{\"Name\":\"a\xffb\"}],\"server_spec\":{\"Name\":\"\\u2028\"},\"horizon\":5e-324}"),
	}
	floats := []float64{1e-7, 1e21, math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308, 0.1, 1e-6, 123456.789}
	names := []string{"cam<0>&1", "line\u2028sep\u2029", "bad\xffutf8", "tab\tquote\"slash\\", "MOT16-01", ""}
	for i, m := range msgs {
		x := floats[i%len(floats)]
		f.Add(m, names[i%len(names)], x, floats[(i+3)%len(floats)], -x, int64(i)-3, uint8(i*37))
	}
	f.Add([]byte(`{}`), "", math.Inf(1), math.NaN(), 0.0, int64(math.MaxInt64), uint8(0xff))

	var (
		dec     decoder
		gotResp PollResponse
		gotReq  PollRequest
	)
	f.Fuzz(func(t *testing.T, data []byte, name string, x, y, z float64, n int64, flags uint8) {
		resp := PollResponse{
			NoWork: flags&1 != 0, Shutdown: flags&2 != 0,
			Epoch: int(n), Version: uint64(n) * 3,
			Server:  cluster.Server{Name: name, Uplink: y, SpeedFactor: z},
			Horizon: x,
		}
		switch flags >> 2 & 3 {
		case 1:
			resp.Specs = []cluster.StreamSpec{}
		case 2, 3:
			for i := 0; i < int(flags>>2&3); i++ {
				resp.Specs = append(resp.Specs, cluster.StreamSpec{Name: name[:len(name)*i/3], Period: x, Offset: y * float64(i), Proc: z, Bits: x * y})
			}
		}
		req := PollRequest{Server: int(n), Incarnation: uint64(n) >> 1, WaitMS: int(int32(n))}
		if flags&16 != 0 {
			req.Done = &Outcome{Epoch: int(n), Version: uint64(n), Result: runtime.ServerEvalResult{LatSum: x, Frames: int(n >> 3), MaxJitter: z}}
			if flags&32 != 0 {
				req.Done.Reject = name
			}
		}

		// Encoding, and the round trip of json.Marshal's bytes.
		if want, err := json.Marshal(&resp); sameEncoding(t, "PollResponse", want, err, func() ([]byte, error) { return appendPollResponse(nil, &resp) }) {
			if err := dec.pollResponse(want, &gotResp); err != nil {
				t.Fatalf("codec refused json.Marshal's PollResponse %s: %v", want, err)
			}
			var oracle PollResponse
			mustUnmarshal(t, want, &oracle)
			sameValue(t, want, &gotResp, &oracle)
		}
		if want, err := json.Marshal(&req); sameEncoding(t, "PollRequest", want, err, func() ([]byte, error) { return appendPollRequest(nil, &req) }) {
			if err := dec.pollRequest(want, &gotReq); err != nil {
				t.Fatalf("codec refused json.Marshal's PollRequest %s: %v", want, err)
			}
			var oracle PollRequest
			mustUnmarshal(t, want, &oracle)
			sameValue(t, want, &gotReq, &oracle)
		}

		// Arbitrary bytes: never a panic, and nothing json.Unmarshal refuses.
		if dec.pollResponse(data, &gotResp) == nil {
			var oracle PollResponse
			mustUnmarshal(t, data, &oracle)
			sameValue(t, data, &gotResp, &oracle)
		}
		if dec.pollRequest(data, &gotReq) == nil {
			var oracle PollRequest
			mustUnmarshal(t, data, &oracle)
			sameValue(t, data, &gotReq, &oracle)
		}
	})
}

// sameEncoding checks the codec's encoding against json.Marshal's (want,
// werr) and reports whether there are bytes to go on with.
func sameEncoding(t *testing.T, what string, want []byte, werr error, encode func() ([]byte, error)) bool {
	t.Helper()
	got, err := encode()
	if (err != nil) != (werr != nil) {
		t.Fatalf("%s: codec error %v, json.Marshal error %v", what, err, werr)
	}
	if werr != nil {
		return false
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s encoding differs from json.Marshal:\n got %s\nwant %s", what, got, want)
	}
	return true
}

func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("codec accepted %q, which json.Unmarshal refuses: %v", data, err)
	}
}

// sameValue compares the codec's parse with json.Unmarshal's: structurally,
// and bit for bit through json.Marshal, whose shortest-form floats tell
// -0 from 0 where reflect.DeepEqual does not.
func sameValue(t *testing.T, input []byte, got, want any) {
	t.Helper()
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || !bytes.Equal(gj, wj) {
		t.Fatalf("parse of %q differs from json.Unmarshal:\n got %s\nwant %s", input, gj, wj)
	}
}
