package dist

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/runner"
)

// The wire codec is hand-written: a result frame carries a member's
// whole run, and reflecting over it cost more than the arbitration it
// feeds. Its contract with encoding/json is exact:
//
//   - AppendMsg writes the bytes json.Marshal writes — field order,
//     omitempty (-0 counts as empty), the float format, HTML-safe
//     string escaping, null for a nil slice and [] for an empty one. A
//     string that needs escaping is escaped by encoding/json itself; a
//     non-finite float hands the whole message to json.Marshal for its
//     error.
//   - decodeCanonical accepts only the canonical form AppendMsg writes:
//     keys in declaration order (any subset), no whitespace, unescaped
//     ASCII strings, JSON-grammar numbers (integral in int fields) and
//     nothing after the closing brace. It never rejects: anything else
//     is left to decodeStrict, the reference decoder, so the set of
//     accepted inputs and their values are encoding/json's.
//
// FuzzDistCodecDifferential holds both halves to encoding/json. A field
// added to Msg, runner.Result or runner.EpochRecord must be added here
// too: until it is, TestWireBytesPinned and the fuzz seeds fail.

// AppendMsg appends m's one-line wire form (no trailing newline) to
// dst. The bytes are exactly json.Marshal(m)'s, and it fails exactly
// when json.Marshal does (a non-finite float), returning dst unchanged.
func AppendMsg(dst []byte, m Msg) ([]byte, error) {
	e := wireEncoder{b: dst}
	e.msg(&m)
	if e.nonFinite {
		b, err := json.Marshal(m)
		return append(dst, b...), err
	}
	return e.b, nil
}

// wireEncoder appends encoding/json's rendering of the wire structs.
// nonFinite latches when a float has no JSON form.
type wireEncoder struct {
	b         []byte
	nonFinite bool
}

func (e *wireEncoder) msg(m *Msg) {
	e.b = append(e.b, `{"type":`...)
	e.str(string(m.Type))
	if m.Member != "" {
		e.b = append(e.b, `,"member":`...)
		e.str(m.Member)
	}
	if m.Agent != "" {
		e.b = append(e.b, `,"agent":`...)
		e.str(m.Agent)
	}
	e.optInt(`,"epoch":`, m.Epoch)
	e.optFloat(`,"peak_w":`, m.PeakW)
	e.optFloat(`,"weight":`, m.Weight)
	e.optFloat(`,"floor_frac":`, m.FloorFrac)
	e.optInt(`,"total_epochs":`, m.TotalEpochs)
	e.optInt(`,"done_epochs":`, m.DoneEpochs)
	e.optFloat(`,"target_bips":`, m.TargetBIPS)
	e.optFloat(`,"epoch_ns":`, m.EpochNs)
	e.optFloat(`,"grant_w":`, m.GrantW)
	e.optInt(`,"member_epoch":`, m.MemberEpoch)
	e.optFloat(`,"power_w":`, m.PowerW)
	e.optFloat(`,"throttle_frac":`, m.ThrottleFrac)
	e.optFloat(`,"instr":`, m.Instr)
	if m.Done {
		e.b = append(e.b, `,"done":true`...)
	}
	if m.Result != nil {
		e.b = append(e.b, `,"result":`...)
		e.result(m.Result)
	}
	if m.Err != "" {
		e.b = append(e.b, `,"err":`...)
		e.str(m.Err)
	}
	e.b = append(e.b, '}')
}

func (e *wireEncoder) result(r *runner.Result) {
	e.b = append(e.b, `{"Mix":`...)
	e.str(r.Mix)
	e.b = append(e.b, `,"PolicyName":`...)
	e.str(r.PolicyName)
	e.b = append(e.b, `,"Cores":`...)
	e.b = strconv.AppendInt(e.b, int64(r.Cores), 10)
	e.field(`,"PeakW":`, r.PeakW)
	e.field(`,"BudgetW":`, r.BudgetW)
	e.b = append(e.b, `,"Epochs":`...)
	if r.Epochs == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range r.Epochs {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.epoch(&r.Epochs[i])
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"TotalInstr":`...)
	e.floats(r.TotalInstr)
	e.b = append(e.b, `,"NsPerInstr":`...)
	e.floats(r.NsPerInstr)
	e.field(`,"TotalTimeNs":`, r.TotalTimeNs)
	e.b = append(e.b, '}')
}

func (e *wireEncoder) epoch(r *runner.EpochRecord) {
	e.b = append(e.b, `{"Epoch":`...)
	e.b = strconv.AppendInt(e.b, int64(r.Epoch), 10)
	e.field(`,"AvgPowerW":`, r.AvgPowerW)
	e.field(`,"CoresW":`, r.CoresW)
	e.field(`,"MemW":`, r.MemW)
	e.field(`,"BudgetW":`, r.BudgetW)
	e.field(`,"PeakW":`, r.PeakW)
	e.b = append(e.b, `,"CoreSteps":`...)
	if r.CoreSteps == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, v := range r.CoreSteps {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = strconv.AppendInt(e.b, int64(v), 10)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"MemStep":`...)
	e.b = strconv.AppendInt(e.b, int64(r.MemStep), 10)
	e.b = append(e.b, `,"Instr":`...)
	e.floats(r.Instr)
	e.b = append(e.b, `,"CoreW":`...)
	e.floats(r.CoreW)
	e.field(`,"PredictedPowerW":`, r.PredictedPowerW)
	e.field(`,"RestPowerW":`, r.RestPowerW)
	e.field(`,"PredictedRespNs":`, r.PredictedRespNs)
	e.field(`,"MeasuredRespNs":`, r.MeasuredRespNs)
	e.b = append(e.b, '}')
}

// optInt and optFloat write an omitempty field: nothing for 0 (or -0).
func (e *wireEncoder) optInt(key string, v int) {
	if v != 0 {
		e.b = append(e.b, key...)
		e.b = strconv.AppendInt(e.b, int64(v), 10)
	}
}

func (e *wireEncoder) optFloat(key string, v float64) {
	if v != 0 {
		e.field(key, v)
	}
}

func (e *wireEncoder) field(key string, v float64) {
	e.b = append(e.b, key...)
	e.float(v)
}

func (e *wireEncoder) floats(s []float64) {
	if s == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, v := range s {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(v)
	}
	e.b = append(e.b, ']')
}

// float writes encoding/json's float64 form: the shortest round-trip
// digits, in 'e' notation below 1e-6 and from 1e21 on, with a
// two-digit negative exponent trimmed (e-07 → e-7).
func (e *wireEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.nonFinite = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// str writes a JSON string. Printable ASCII outside encoding/json's
// HTML-safe escape set is copied as is; anything else is escaped by
// encoding/json itself.
func (e *wireEncoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// Key orders of the canonical form: the structs' declaration order,
// under their JSON names. A key's index is its case label in the
// matching field switch below.
var (
	msgKeys = []string{"type", "member", "agent", "epoch", "peak_w", "weight", "floor_frac",
		"total_epochs", "done_epochs", "target_bips", "epoch_ns", "grant_w", "member_epoch",
		"power_w", "throttle_frac", "instr", "done", "result", "err"}
	resultKeys = []string{"Mix", "PolicyName", "Cores", "PeakW", "BudgetW", "Epochs",
		"TotalInstr", "NsPerInstr", "TotalTimeNs"}
	epochKeys = []string{"Epoch", "AvgPowerW", "CoresW", "MemW", "BudgetW", "PeakW",
		"CoreSteps", "MemStep", "Instr", "CoreW", "PredictedPowerW", "RestPowerW",
		"PredictedRespNs", "MeasuredRespNs"}
)

// decodeCanonical parses data if it is in the canonical form AppendMsg
// writes. ok=false means only "not canonical": the caller hands the
// frame to decodeStrict, which accepts or rejects it.
func decodeCanonical(data []byte) (m Msg, ok bool) {
	d := wireDecoder{b: data}
	d.object(msgKeys, func(k int) {
		switch k {
		case 0:
			m.Type = Type(d.str())
		case 1:
			m.Member = d.str()
		case 2:
			m.Agent = d.str()
		case 3:
			m.Epoch = d.int()
		case 4:
			m.PeakW = d.float()
		case 5:
			m.Weight = d.float()
		case 6:
			m.FloorFrac = d.float()
		case 7:
			m.TotalEpochs = d.int()
		case 8:
			m.DoneEpochs = d.int()
		case 9:
			m.TargetBIPS = d.float()
		case 10:
			m.EpochNs = d.float()
		case 11:
			m.GrantW = d.float()
		case 12:
			m.MemberEpoch = d.int()
		case 13:
			m.PowerW = d.float()
		case 14:
			m.ThrottleFrac = d.float()
		case 15:
			m.Instr = d.float()
		case 16:
			m.Done = d.bool()
		case 17:
			m.Result = d.result()
		case 18:
			m.Err = d.str()
		}
	})
	if d.bad || d.i != len(d.b) {
		return Msg{}, false
	}
	return m, true
}

// wireDecoder scans the canonical form. bad latches on the first byte
// outside it; every method is a no-op afterwards.
type wireDecoder struct {
	b   []byte
	i   int
	bad bool
}

// eat consumes c if it is the next byte.
func (d *wireDecoder) eat(c byte) bool {
	if !d.bad && d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *wireDecoder) expect(c byte) {
	if !d.eat(c) {
		d.bad = true
	}
}

// literal consumes lit if the input continues with it.
func (d *wireDecoder) literal(lit string) bool {
	if !d.bad && len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// object walks one object whose keys appear in keys' order, any subset
// of them, calling field with each key's index to parse its value.
func (d *wireDecoder) object(keys []string, field func(k int)) {
	d.expect('{')
	if d.bad || d.eat('}') {
		return
	}
	next := 0
	for {
		name := d.rawStr()
		d.expect(':')
		if d.bad {
			return
		}
		k := next
		for k < len(keys) && keys[k] != string(name) {
			k++
		}
		if k == len(keys) {
			d.bad = true
			return
		}
		next = k + 1
		field(k)
		if !d.eat(',') {
			d.expect('}')
			return
		}
	}
}

// rawStr consumes a string of printable ASCII with no escapes and
// returns its contents, aliasing the input.
func (d *wireDecoder) rawStr() []byte {
	d.expect('"')
	start := d.i
	for !d.bad && d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1]
		case c < 0x20 || c >= 0x80 || c == '\\':
			d.bad = true
		default:
			d.i++
		}
	}
	d.bad = true
	return nil
}

func (d *wireDecoder) str() string { return string(d.rawStr()) }

// number consumes one token of the JSON number grammar and reports
// whether it is integral (no fraction, no exponent).
func (d *wireDecoder) number() (tok []byte, integral bool) {
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		d.bad = true
		return nil, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		i++
		integral = false
		if !digits() {
			d.bad = true
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		integral = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.bad = true
			return nil, false
		}
	}
	tok, d.i = b[d.i:i], i
	return tok, integral
}

func (d *wireDecoder) int() int {
	if d.bad {
		return 0
	}
	tok, integral := d.number()
	if d.bad || !integral {
		d.bad = true
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		d.bad = true
	}
	return int(v)
}

func (d *wireDecoder) float() float64 {
	if d.bad {
		return 0
	}
	tok, _ := d.number()
	if d.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.bad = true
	}
	return v
}

func (d *wireDecoder) bool() bool {
	switch {
	case d.literal("true"):
		return true
	case d.literal("false"):
		return false
	}
	d.bad = true
	return false
}

func (d *wireDecoder) result() *runner.Result {
	r := new(runner.Result)
	d.object(resultKeys, func(k int) {
		switch k {
		case 0:
			r.Mix = d.str()
		case 1:
			r.PolicyName = d.str()
		case 2:
			r.Cores = d.int()
		case 3:
			r.PeakW = d.float()
		case 4:
			r.BudgetW = d.float()
		case 5:
			r.Epochs = d.epochs()
		case 6:
			r.TotalInstr = numbers(d, d.float)
		case 7:
			r.NsPerInstr = numbers(d, d.float)
		case 8:
			r.TotalTimeNs = d.float()
		}
	})
	return r
}

func (d *wireDecoder) epochs() []runner.EpochRecord {
	if d.literal("null") {
		return nil
	}
	d.expect('[')
	out := []runner.EpochRecord{}
	if d.bad || d.eat(']') {
		return out
	}
	for !d.bad {
		out = append(out, runner.EpochRecord{})
		r := &out[len(out)-1]
		d.object(epochKeys, func(k int) {
			switch k {
			case 0:
				r.Epoch = d.int()
			case 1:
				r.AvgPowerW = d.float()
			case 2:
				r.CoresW = d.float()
			case 3:
				r.MemW = d.float()
			case 4:
				r.BudgetW = d.float()
			case 5:
				r.PeakW = d.float()
			case 6:
				r.CoreSteps = numbers(d, d.int)
			case 7:
				r.MemStep = d.int()
			case 8:
				r.Instr = numbers(d, d.float)
			case 9:
				r.CoreW = numbers(d, d.float)
			case 10:
				r.PredictedPowerW = d.float()
			case 11:
				r.RestPowerW = d.float()
			case 12:
				r.PredictedRespNs = d.float()
			case 13:
				r.MeasuredRespNs = d.float()
			}
		})
		if !d.eat(',') {
			d.expect(']')
			break
		}
	}
	return out
}

// arrayLen sizes a flat number array ahead of parsing it: one more
// element than commas before the closing bracket, but never more than
// a well-formed array of that many bytes holds (each element takes a
// digit and a comma), so a hostile "[,,,…]" cannot make the fast path
// allocate more than a valid frame of the same length.
func (d *wireDecoder) arrayLen() int {
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end < 0 {
		d.bad = true
		return 0
	}
	return min(1+bytes.Count(d.b[d.i:d.i+end], []byte{','}), (end+1)/2)
}

// numbers parses null (a nil slice) or a flat array of numbers (a
// non-nil slice, empty for []), each parsed by elem.
func numbers[T int | float64](d *wireDecoder, elem func() T) []T {
	if d.literal("null") {
		return nil
	}
	d.expect('[')
	if d.bad || d.eat(']') {
		return []T{}
	}
	out := make([]T, 0, d.arrayLen())
	for !d.bad {
		out = append(out, elem())
		if !d.eat(',') {
			d.expect(']')
			break
		}
	}
	return out
}
