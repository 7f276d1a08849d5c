package dist_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
)

// The decoder's typed-rejection table: every malformed shape fails with
// ErrBadMessage, never a panic and never a silent zero value.
func TestDecodeMsgRejectsHostileInput(t *testing.T) {
	huge := `{"type":"announce","member":"` + strings.Repeat("x", dist.MaxMsgBytes) + `"}`
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"truncated", `{"type":"gra`},
		{"not json", "::::"},
		{"unknown type", `{"type":"gossip","member":"m"}`},
		{"unknown field", `{"type":"grant","member":"m","grant_w":1,"backdoor":true}`},
		{"trailing data", `{"type":"heartbeat"}{"type":"heartbeat"}`},
		{"oversized control", huge},
		{"grant without member", `{"type":"grant","grant_w":5}`},
		{"grant zero watts", `{"type":"grant","member":"m"}`},
		{"grant overflow", `{"type":"grant","member":"m","grant_w":1e999}`},
		{"negative epoch", `{"type":"grant","member":"m","grant_w":1,"epoch":-1}`},
		{"announce zero peak", `{"type":"announce","member":"m","total_epochs":4}`},
		{"announce bad floor", `{"type":"announce","member":"m","peak_w":10,"floor_frac":1.5,"total_epochs":4}`},
		{"announce done past total", `{"type":"announce","member":"m","peak_w":10,"total_epochs":4,"done_epochs":5}`},
		{"announce huge total", `{"type":"announce","member":"m","peak_w":10,"total_epochs":2000000000}`},
		{"report throttle out of range", `{"type":"report","member":"m","throttle_frac":1.5}`},
		{"report negative power", `{"type":"report","member":"m","power_w":-1}`},
		{"result without payload", `{"type":"result","member":"m"}`},
		{"error without cause", `{"type":"error"}`},
		{"long id", `{"type":"heartbeat","member":"` + strings.Repeat("a", 257) + `"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := dist.DecodeMsg([]byte(tc.in)); !errors.Is(err, dist.ErrBadMessage) {
				t.Errorf("DecodeMsg(%q) error = %v, want ErrBadMessage", tc.in, err)
			}
		})
	}
}

// FuzzDistMessage hammers the wire decoder with arbitrary bytes: it
// must return a typed error or a message that survives a lossless
// re-encode round-trip — DecodeMsg(EncodeMsg(m)) is DeepEqual to m and
// encoding is a fixed point — and never panic. The CI smoke runs this
// for a bounded interval on every push.
func FuzzDistMessage(f *testing.F) {
	seeds := []string{
		`{"type":"announce","member":"m1","agent":"a1","peak_w":40,"weight":2,"floor_frac":0.1,"total_epochs":8}`,
		`{"type":"announce","member":"m1","peak_w":40,"total_epochs":8,"done_epochs":3}`,
		`{"type":"welcome","member":"m1","epoch":2}`,
		`{"type":"grant","member":"m1","epoch":3,"grant_w":17.25}`,
		`{"type":"report","member":"m1","epoch":3,"member_epoch":2,"power_w":12.5,"throttle_frac":0.25,"instr":1e6,"done":true}`,
		`{"type":"evict","member":"m1","epoch":3}`,
		`{"type":"detach","member":"m1"}`,
		`{"type":"heartbeat","agent":"a1"}`,
		`{"type":"error","err":"boom"}`,
		`{"type":"result","member":"m1","result":{"Mix":"MIX1","PolicyName":"fastcap","Cores":4,"PeakW":40,"BudgetW":28,"TotalInstr":[1,2],"NsPerInstr":[3,4],"TotalTimeNs":5e6}}`,
		`{"type":"grant","member":"m1","grant_w":NaN}`,
		`{"type":"grant","member":"m1","grant_w":1e999}`,
		`{"type":"announce","member":"m1","peak_w":-40,"total_epochs":8}`,
		`{"type":"announce","member":"m1","peak_w":40,"total_epochs":8,"target_bips":4,"epoch_ns":5e5}`,
		`{"type":"announce","member":"m1","peak_w":40,"total_epochs":8,"target_bips":-4,"epoch_ns":5e5}`,
		`{"type":"announce","member":"m1","peak_w":40,"total_epochs":8,"target_bips":4}`,
		"",
		"{",
		"[1,2,3]",
		"null",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := dist.DecodeMsg(data)
		if err != nil {
			if !errors.Is(err, dist.ErrBadMessage) {
				t.Fatalf("DecodeMsg error %v is not ErrBadMessage", err)
			}
			return
		}
		// Accepted messages must round-trip losslessly, so accepted
		// input is always forwardable unchanged.
		b, err := dist.EncodeMsg(m)
		if err != nil {
			t.Fatalf("EncodeMsg on accepted message: %v", err)
		}
		back, err := dist.DecodeMsg(b)
		if err != nil {
			t.Fatalf("re-decode of accepted message: %v\nwire: %s", err, b)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("re-decode changed the message\n got: %+v\nwant: %+v\nwire: %s", back, m, b)
		}
		if again, err := dist.EncodeMsg(back); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("re-encode is not a fixed point: %s, %v\nfirst: %s", again, err, b)
		}
	})
}
