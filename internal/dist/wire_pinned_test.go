package dist_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/runner"
)

// pinnedFrames are wire frames whose bytes were produced by
// encoding/json.Marshal before the hand-written codec existed: one per
// message type plus the encoder's edge cases (nil vs empty slices,
// float format switches, -0, HTML-safe escaping, non-ASCII and invalid
// UTF-8 identifiers). A daemon speaking these bytes interoperates with
// every earlier build.
func pinnedFrames() []struct {
	name string
	m    dist.Msg
	wire string
} {
	negZero := math.Copysign(0, -1)
	full := &runner.Result{
		Mix: "MIX1", PolicyName: "fastcap", Cores: 2, PeakW: 40.5, BudgetW: 28.35,
		Epochs: []runner.EpochRecord{
			{Epoch: 0, AvgPowerW: 27.91, CoresW: 20.125, MemW: 7.785, BudgetW: 28.35, PeakW: 40.5,
				CoreSteps: []int{9, 4}, MemStep: 2, Instr: []float64{1.25e6, 987654.5}, CoreW: []float64{11.5, 8.625},
				PredictedPowerW: 28.1, RestPowerW: 27.75, PredictedRespNs: 61.5, MeasuredRespNs: 63.25},
			{Epoch: 1, AvgPowerW: 28.3, CoresW: 20.5, MemW: 7.8, BudgetW: 28.35, PeakW: 40.5,
				CoreSteps: []int{8, 5}, MemStep: 1, Instr: []float64{1.2e6, 1.01e6}, CoreW: []float64{11, 9.5}},
		},
		TotalInstr:  []float64{2.45e6, 1997654.5},
		NsPerInstr:  []float64{0.40816326530612246, 0.5005871},
		TotalTimeNs: 1e6,
	}
	return []struct {
		name string
		m    dist.Msg
		wire string
	}{
		{"announce", dist.Msg{Type: dist.TypeAnnounce, Member: "m1", Agent: "a1", PeakW: 40, Weight: 2, FloorFrac: 0.1,
			TotalEpochs: 8, DoneEpochs: 3, TargetBIPS: 4.5, EpochNs: 5e5},
			`{"type":"announce","member":"m1","agent":"a1","peak_w":40,"weight":2,"floor_frac":0.1,"total_epochs":8,"done_epochs":3,"target_bips":4.5,"epoch_ns":500000}`},
		{"welcome", dist.Msg{Type: dist.TypeWelcome, Member: "m1", Agent: "a1", Epoch: 2},
			`{"type":"welcome","member":"m1","agent":"a1","epoch":2}`},
		{"grant", dist.Msg{Type: dist.TypeGrant, Member: "m1", Epoch: 3, GrantW: 17.25},
			`{"type":"grant","member":"m1","epoch":3,"grant_w":17.25}`},
		{"report", dist.Msg{Type: dist.TypeReport, Member: "m1", Agent: "a1", Epoch: 3, MemberEpoch: 2,
			PowerW: 12.5, ThrottleFrac: 0.25, Instr: 1.5e9, Done: true},
			`{"type":"report","member":"m1","agent":"a1","epoch":3,"member_epoch":2,"power_w":12.5,"throttle_frac":0.25,"instr":1500000000,"done":true}`},
		{"result", dist.Msg{Type: dist.TypeResult, Member: "m1", Agent: "a1", Result: full},
			`{"type":"result","member":"m1","agent":"a1","result":{"Mix":"MIX1","PolicyName":"fastcap","Cores":2,"PeakW":40.5,"BudgetW":28.35,"Epochs":[{"Epoch":0,"AvgPowerW":27.91,"CoresW":20.125,"MemW":7.785,"BudgetW":28.35,"PeakW":40.5,"CoreSteps":[9,4],"MemStep":2,"Instr":[1250000,987654.5],"CoreW":[11.5,8.625],"PredictedPowerW":28.1,"RestPowerW":27.75,"PredictedRespNs":61.5,"MeasuredRespNs":63.25},{"Epoch":1,"AvgPowerW":28.3,"CoresW":20.5,"MemW":7.8,"BudgetW":28.35,"PeakW":40.5,"CoreSteps":[8,5],"MemStep":1,"Instr":[1200000,1010000],"CoreW":[11,9.5],"PredictedPowerW":0,"RestPowerW":0,"PredictedRespNs":0,"MeasuredRespNs":0}],"TotalInstr":[2450000,1997654.5],"NsPerInstr":[0.40816326530612246,0.5005871],"TotalTimeNs":1000000}}`},
		{"evict", dist.Msg{Type: dist.TypeEvict, Member: "m1", Agent: "a1", Epoch: 4},
			`{"type":"evict","member":"m1","agent":"a1","epoch":4}`},
		{"detach", dist.Msg{Type: dist.TypeDetach, Member: "m1", Agent: "a1"},
			`{"type":"detach","member":"m1","agent":"a1"}`},
		{"heartbeat", dist.Msg{Type: dist.TypeHeartbeat, Agent: "a1"},
			`{"type":"heartbeat","agent":"a1"}`},
		{"error", dist.Msg{Type: dist.TypeError, Member: "m1", Agent: "a1", Err: "duplicate member"},
			`{"type":"error","member":"m1","agent":"a1","err":"duplicate member"}`},
		{"result nil slices", dist.Msg{Type: dist.TypeResult, Member: "m1", Result: &runner.Result{
			Mix: "MEM2", Cores: 1, Epochs: []runner.EpochRecord{{Epoch: 7}}}},
			`{"type":"result","member":"m1","result":{"Mix":"MEM2","PolicyName":"","Cores":1,"PeakW":0,"BudgetW":0,"Epochs":[{"Epoch":7,"AvgPowerW":0,"CoresW":0,"MemW":0,"BudgetW":0,"PeakW":0,"CoreSteps":null,"MemStep":0,"Instr":null,"CoreW":null,"PredictedPowerW":0,"RestPowerW":0,"PredictedRespNs":0,"MeasuredRespNs":0}],"TotalInstr":null,"NsPerInstr":null,"TotalTimeNs":0}}`},
		{"result empty slices", dist.Msg{Type: dist.TypeResult, Member: "m1", Result: &runner.Result{
			Epochs: []runner.EpochRecord{}, TotalInstr: []float64{}, NsPerInstr: []float64{}}},
			`{"type":"result","member":"m1","result":{"Mix":"","PolicyName":"","Cores":0,"PeakW":0,"BudgetW":0,"Epochs":[],"TotalInstr":[],"NsPerInstr":[],"TotalTimeNs":0}}`},
		{"result empty record slices", dist.Msg{Type: dist.TypeResult, Member: "m1", Result: &runner.Result{
			Epochs: []runner.EpochRecord{{CoreSteps: []int{}, Instr: []float64{}, CoreW: []float64{}}}}},
			`{"type":"result","member":"m1","result":{"Mix":"","PolicyName":"","Cores":0,"PeakW":0,"BudgetW":0,"Epochs":[{"Epoch":0,"AvgPowerW":0,"CoresW":0,"MemW":0,"BudgetW":0,"PeakW":0,"CoreSteps":[],"MemStep":0,"Instr":[],"CoreW":[],"PredictedPowerW":0,"RestPowerW":0,"PredictedRespNs":0,"MeasuredRespNs":0}],"TotalInstr":null,"NsPerInstr":null,"TotalTimeNs":0}}`},
		{"float format edges", dist.Msg{Type: dist.TypeReport, Member: "m1", PowerW: 1e-7, Instr: 1e21,
			ThrottleFrac: 1e-6, GrantW: 1e20, PeakW: 123456789.125, Weight: 5e-324, EpochNs: math.MaxFloat64},
			`{"type":"report","member":"m1","peak_w":123456789.125,"weight":5e-324,"epoch_ns":1.7976931348623157e+308,"grant_w":100000000000000000000,"power_w":1e-7,"throttle_frac":0.000001,"instr":1e+21}`},
		{"negative zero", dist.Msg{Type: dist.TypeResult, Member: "m1", GrantW: negZero, Result: &runner.Result{
			PeakW: negZero, TotalInstr: []float64{negZero, 1},
			Epochs: []runner.EpochRecord{{AvgPowerW: negZero, Instr: []float64{negZero}}}}},
			`{"type":"result","member":"m1","result":{"Mix":"","PolicyName":"","Cores":0,"PeakW":-0,"BudgetW":0,"Epochs":[{"Epoch":0,"AvgPowerW":-0,"CoresW":0,"MemW":0,"BudgetW":0,"PeakW":0,"CoreSteps":null,"MemStep":0,"Instr":[-0],"CoreW":null,"PredictedPowerW":0,"RestPowerW":0,"PredictedRespNs":0,"MeasuredRespNs":0}],"TotalInstr":[-0,1],"NsPerInstr":null,"TotalTimeNs":0}}`},
		{"negative values", dist.Msg{Type: dist.TypeGrant, Member: "m1", Epoch: -3, GrantW: -2.5e-8, MemberEpoch: math.MinInt64},
			`{"type":"grant","member":"m1","epoch":-3,"grant_w":-2.5e-8,"member_epoch":-9223372036854775808}`},
		{"html escape", dist.Msg{Type: dist.TypeError, Agent: "a1", Err: `budget <0> & "quoted" \ tab` + "\t\n\x01\x7f"},
			"{\"type\":\"error\",\"agent\":\"a1\",\"err\":\"budget \\u003c0\\u003e \\u0026 \\\"quoted\\\" \\\\ tab\\t\\n\\u0001\x7f\"}"},
		{"non-ascii id", dist.Msg{Type: dist.TypeHeartbeat, Member: "café-ü-\u2028-日本", Agent: "a1"},
			`{"type":"heartbeat","member":"café-ü-\u2028-日本","agent":"a1"}`},
		{"invalid utf8 id", dist.Msg{Type: dist.TypeHeartbeat, Member: "m\xff\xfe1", Agent: "a\xc3"},
			`{"type":"heartbeat","member":"m\ufffd\ufffd1","agent":"a\ufffd"}`},
		{"unknown type string", dist.Msg{Type: "gossip<x>"},
			`{"type":"gossip\u003cx\u003e"}`},
		{"empty", dist.Msg{},
			`{"type":""}`},
	}
}

// TestWireBytesPinned holds the encoder to the frames earlier builds
// put on the wire, byte for byte, and to encoding/json itself.
func TestWireBytesPinned(t *testing.T) {
	for _, f := range pinnedFrames() {
		t.Run(f.name, func(t *testing.T) {
			got, err := dist.EncodeMsg(f.m)
			if err != nil {
				t.Fatalf("EncodeMsg: %v", err)
			}
			if string(got) != f.wire {
				t.Errorf("EncodeMsg\n got: %s\nwant: %s", got, f.wire)
			}
			ref, err := json.Marshal(f.m)
			if err != nil || string(ref) != f.wire {
				t.Errorf("json.Marshal = %s, %v; want the pinned frame", ref, err)
			}
			prefix := []byte("frame:")
			app, err := dist.AppendMsg(prefix, f.m)
			if err != nil || !bytes.Equal(app, append([]byte("frame:"), f.wire...)) {
				t.Errorf("AppendMsg after a prefix = %s, %v; want the prefix then the pinned frame", app, err)
			}
		})
	}
}
