package dist

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/runner"
)

// Bench frames: a grant and a report as the coordinator and agents
// exchange them every epoch, and a finished member's result as
// fleet-dist ships it (40 epochs of a 4-core member).
func benchGrant() Msg {
	return Msg{Type: TypeGrant, Member: "fleet-017", Agent: "agent-3", Epoch: 27, GrantW: 31.418947368421053}
}

func benchReport() Msg {
	return Msg{Type: TypeReport, Member: "fleet-017", Agent: "agent-3", Epoch: 27, MemberEpoch: 27,
		PowerW: 30.977123456789012, ThrottleFrac: 0.125, Instr: 8.123456789e6}
}

func benchResult() Msg {
	const cores, epochs = 4, 40
	r := &runner.Result{Mix: "MIX3", PolicyName: "fastcap", Cores: cores, PeakW: 41.27, BudgetW: 24.762,
		TotalInstr: make([]float64, cores), NsPerInstr: make([]float64, cores), TotalTimeNs: 2e7}
	for e := 0; e < epochs; e++ {
		rec := runner.EpochRecord{Epoch: e, AvgPowerW: 24.1 + float64(e)/7, CoresW: 17.3 + float64(e)/11,
			MemW: 6.8 + float64(e)/13, BudgetW: 24.762, PeakW: 41.27, MemStep: e % 3,
			CoreSteps: make([]int, cores), Instr: make([]float64, cores), CoreW: make([]float64, cores),
			PredictedPowerW: 24.5 + float64(e)/17, RestPowerW: 24.2 + float64(e)/19,
			PredictedRespNs: 61.25 + float64(e)/3, MeasuredRespNs: 63.5 + float64(e)/9}
		for c := 0; c < cores; c++ {
			rec.CoreSteps[c] = (e + c) % 10
			rec.Instr[c] = 2.1e5 + float64(e*cores+c)*1234.567
			rec.CoreW[c] = 4.3 + float64(c)/3 + float64(e)/23
			r.TotalInstr[c] += rec.Instr[c]
		}
		r.Epochs = append(r.Epochs, rec)
	}
	for c := range r.NsPerInstr {
		r.NsPerInstr[c] = r.TotalTimeNs / r.TotalInstr[c]
	}
	return Msg{Type: TypeResult, Member: "fleet-017", Agent: "agent-3", Result: r}
}

// The fast path must actually carry the frames the protocol sends: a
// decoder that declined everything would still pass the differential
// fuzz, only slowly.
func TestDecodeCanonicalTakesEncoderOutput(t *testing.T) {
	msgs := []Msg{
		benchGrant(), benchReport(), benchResult(),
		{Type: TypeAnnounce, Member: "m1", Agent: "a1", PeakW: 40, Weight: 2, FloorFrac: 0.1,
			TotalEpochs: 8, DoneEpochs: 3, TargetBIPS: 4.5, EpochNs: 5e5},
		{Type: TypeReport, Member: "m1", Epoch: 1, Instr: 1e21, PowerW: 1e-7, Done: true},
		{Type: TypeResult, Member: "m1", Result: &runner.Result{Epochs: []runner.EpochRecord{{}}, TotalInstr: []float64{}}},
		{Type: TypeError, Err: "duplicate member"},
	}
	for _, m := range msgs {
		b, err := EncodeMsg(m)
		if err != nil {
			t.Fatalf("EncodeMsg(%+v): %v", m, err)
		}
		got, ok := decodeCanonical(b)
		if !ok {
			t.Errorf("fast path declined its own encoder's frame %s", b)
			continue
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("fast path decoded %s as %+v, want %+v", b, got, m)
		}
	}
}

// FuzzDistCodecDifferential holds the hand-written codec to
// encoding/json. Decoding: whatever the canonical fast path accepts,
// the reference decoder accepts too, with a DeepEqual message (nil and
// empty slices included) that marshals to the same bytes (-0 included).
// Encoding: for the decoded message with one string and one float
// poked into a field chosen by slot, AppendMsg writes json.Marshal's
// bytes and fails exactly when json.Marshal does.
func FuzzDistCodecDifferential(f *testing.F) {
	seeds := []string{
		`{"type":"announce","member":"m1","agent":"a1","peak_w":40,"weight":2,"floor_frac":0.1,"total_epochs":8,"done_epochs":3,"target_bips":4.5,"epoch_ns":500000}`,
		`{"type":"grant","member":"m1","epoch":3,"grant_w":17.25}`,
		`{"type":"report","member":"m1","agent":"a1","epoch":3,"member_epoch":2,"power_w":12.5,"throttle_frac":0.25,"instr":1500000000,"done":true}`,
		`{"type":"report","member":"m1","power_w":1e-7,"throttle_frac":0.000001,"instr":1e+21,"done":false}`,
		`{"type":"result","member":"m1","result":{"Mix":"MIX1","PolicyName":"fastcap","Cores":2,"PeakW":-0,"BudgetW":28.35,"Epochs":[{"Epoch":0,"AvgPowerW":27.91,"CoreSteps":[9,4],"MemStep":2,"Instr":[1250000,-0],"CoreW":[]}],"TotalInstr":null,"NsPerInstr":[],"TotalTimeNs":1000000}}`,
		`{"type":"result","member":"m1","result":{"Epochs":[],"TotalInstr":[],"NsPerInstr":null}}`,
		`{"type":"error","agent":"a1","err":"budget <0>"}`,
		"{\"type\":\"heartbeat\",\"member\":\"m\xff1\"}",
		`{"type":"grant","member":"m1","epoch":1.0,"grant_w":1}`,
		`{"type":"grant","member":"m1","epoch":01,"grant_w":1}`,
		`{"type":"grant","member":"m1","grant_w":1e999}`,
		`{"type":"grant","grant_w":1,"member":"m1"}`,
		`{"type":"grant","member":"m1","member":"m2"}`,
		`{"type":"grant","Member":"m1"}`,
		`{"type":"grant", "member":"m1"}`,
		`{"type":"grant","member":"m1"} `,
		`{"type":"grant","member":"m1","result":null}`,
		`{}`,
		"",
	}
	for i, s := range seeds {
		x := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, math.NaN(), math.Inf(-1), 17.25}[i%7]
		str := []string{"", "m1", "<>&", "m\xff", "café\u2028"}[i%5]
		f.Add([]byte(s), str, x, uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, s string, x float64, slot uint8) {
		ref, refErr := decodeStrict(data)
		if fast, ok := decodeCanonical(data); ok {
			if refErr != nil {
				t.Fatalf("fast path accepted %q, reference decoder rejects it: %v", data, refErr)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("decoders disagree on %q\nfast: %+v\n ref: %+v", data, fast, ref)
			}
			fb, _ := json.Marshal(fast)
			rb, _ := json.Marshal(ref)
			if !bytes.Equal(fb, rb) {
				t.Fatalf("decoders disagree on %q\nfast: %s\n ref: %s", data, fb, rb)
			}
		}

		m := ref
		r := m.Result
		if r == nil {
			r = new(runner.Result)
		}
		switch slot % 8 {
		case 0:
			m.Type, m.GrantW = Type(s), x
		case 1:
			m.Member, m.PowerW = s, x
		case 2:
			m.Agent, m.Instr = s, x
		case 3:
			m.Err, m.EpochNs = s, x
		case 4:
			r.Mix, r.TotalTimeNs = s, x
		case 5:
			r.PolicyName, r.TotalInstr = s, append(r.TotalInstr, x)
		case 6:
			r.Epochs = append(r.Epochs, runner.EpochRecord{MeasuredRespNs: x, CoreW: []float64{x}})
		}
		if slot%8 >= 4 {
			m.Result = r
		}
		want, wantErr := json.Marshal(m)
		got, gotErr := AppendMsg(nil, m)
		if (gotErr != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("AppendMsg(%+v) = %s, %v\n json.Marshal = %s, %v", m, got, gotErr, want, wantErr)
		}
	})
}

func benchmarkWire(b *testing.B, m Msg) {
	frame, err := EncodeMsg(m)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for b.Loop() {
		frame, err := EncodeMsg(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeMsg(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistWire{Grant,Report,Result} time one EncodeMsg + DecodeMsg
// round trip per frame kind.
func BenchmarkDistWireGrant(b *testing.B)  { benchmarkWire(b, benchGrant()) }
func BenchmarkDistWireReport(b *testing.B) { benchmarkWire(b, benchReport()) }
func BenchmarkDistWireResult(b *testing.B) { benchmarkWire(b, benchResult()) }
