package ldphttp

// The JSON report decoder against its predecessor. oracleWireReport keeps
// the decoder WireReport replaced — a number decode, then, when that failed,
// an array decode — verbatim, and the table test and FuzzReportDecodeOracle
// require both to agree on accept/reject and on every float64 bit. The one
// allowed difference: a null report, or a null element, which the oracle
// read as the value 0 and the decoder rejects.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
)

// oracleWireReport is the replaced WireReport decoder, kept as a test oracle.
type oracleWireReport []float64

// UnmarshalJSON accepts a JSON number or an array of numbers.
func (r *oracleWireReport) UnmarshalJSON(b []byte) error {
	var f float64
	if err := json.Unmarshal(b, &f); err == nil {
		*r = oracleWireReport{f}
		return nil
	}
	var v []float64
	if err := json.Unmarshal(b, &v); err == nil {
		*r = v
		return nil
	}
	return fmt.Errorf("ldphttp: bad report %s (want a number or an array of numbers)", b)
}

type oracleReportRequest struct {
	Stream string           `json:"stream"`
	Report oracleWireReport `json:"report"`
}

type oracleBatchRequest struct {
	Stream  string             `json:"stream"`
	Reports []oracleWireReport `json:"reports"`
}

// nullsSeen counts the null reports and null elements nullProbe decoded.
var nullsSeen atomic.Int64

// nullProbe decodes through the request bodies' field names, so it sees
// every report value encoding/json hands a report decoder (duplicate and
// case-folded keys included), and counts the nulls among them.
type nullProbe struct{}

func (nullProbe) UnmarshalJSON(b []byte) error {
	if hasNull(b) {
		nullsSeen.Add(1)
	}
	return nil
}

// hasNull reports whether a report value is null or an array with a null
// element.
func hasNull(b []byte) bool {
	var v any
	if json.Unmarshal(b, &v) != nil {
		return false
	}
	if v == nil {
		return true
	}
	elems, _ := v.([]any)
	for _, e := range elems {
		if e == nil {
			return true
		}
	}
	return false
}

// nullReports reports whether any report value a report body (batch
// false) or a batch body (batch true) carries is null or holds a null
// element.
func nullReports(body []byte, batch bool) bool {
	nullsSeen.Store(0)
	if batch {
		var probe struct {
			Reports []nullProbe `json:"reports"`
		}
		json.Unmarshal(body, &probe)
	} else {
		var probe struct {
			Report nullProbe `json:"report"`
		}
		json.Unmarshal(body, &probe)
	}
	return nullsSeen.Load() > 0
}

// sameBits reports whether two reports carry the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// agree checks one decode against the oracle's: the same accept/reject and
// bits, except that a null the decoder rejected may have decoded as 0.
func agree(t *testing.T, what string, input []byte, oracleErr, err error, nulls bool, same func() bool) {
	t.Helper()
	switch {
	case err == nil && nulls:
		t.Errorf("%s %q: a null report was accepted", what, input)
	case oracleErr == nil && err != nil && !nulls:
		t.Errorf("%s %q: rejected (%v), the oracle accepts it", what, input, err)
	case oracleErr != nil && err == nil:
		t.Errorf("%s %q: accepted, the oracle rejects it (%v)", what, input, oracleErr)
	case err == nil && !same():
		t.Errorf("%s %q: decoded differently from the oracle", what, input)
	}
}

// checkReportDecode decodes input as a report body and as a batch body, and
// — when it is one JSON value — directly as a report, the way encoding/json
// hands it to the decoder: without surrounding whitespace.
func checkReportDecode(t *testing.T, input []byte) {
	t.Helper()
	var oReq oracleReportRequest
	var req reportRequest
	oErr, err := json.Unmarshal(input, &oReq), json.Unmarshal(input, &req)
	agree(t, "report body", input, oErr, err, nullReports(input, false), func() bool {
		return oReq.Stream == req.Stream && sameBits(oReq.Report, req.Report)
	})

	var oBatch oracleBatchRequest
	var batch batchRequest
	oErr, err = json.Unmarshal(input, &oBatch), json.Unmarshal(input, &batch)
	agree(t, "batch body", input, oErr, err, nullReports(input, true), func() bool {
		if oBatch.Stream != batch.Stream || len(oBatch.Reports) != len(batch.Reports) ||
			(oBatch.Reports == nil) != (batch.Reports == nil) {
			return false
		}
		for i := range batch.Reports {
			if !sameBits(oBatch.Reports[i], batch.Reports[i]) {
				return false
			}
		}
		return true
	})

	value := bytes.Trim(input, " \t\r\n")
	if !json.Valid(value) {
		return
	}
	var oRep oracleWireReport
	var rep WireReport
	oErr, err = oRep.UnmarshalJSON(value), rep.UnmarshalJSON(value)
	agree(t, "report value", value, oErr, err, hasNull(value), func() bool {
		return sameBits(oRep, rep)
	})
}

// reportDecodeCases are report values and request bodies the decoder must
// decode as the oracle does.
var reportDecodeCases = []string{
	// Bare numbers, in every spelling JSON's grammar allows.
	`0.5`, `0`, `1`, `-0.1`, `7`, `-1`, `1e2`, `1E2`, `1e+2`, `1.5e-3`, `-0.0e0`,
	`5e-324`, `1e-400`, `1.7976931348623157e308`, `123456789012345678901234567890`,
	`0.1000000000000000055511151231257827021181583404541015625`,
	// Negative zero keeps its sign bit.
	`-0`, `[-0]`, `[0, -0]`,
	// 2^53-scale integers round as strconv and encoding/json round them.
	`9007199254740992`, `9007199254740993`, `-9007199254740993`, `18014398509481985`,
	`[9007199254740993, 3]`,
	// Out of float64 range: rejected by both.
	`1e999`, `-1e999`, `[1e999]`, `[1, -1e400]`,
	// Arrays, with and without whitespace.
	`[]`, `[ ]`, `[3, 17, 40]`, `[1.5,-2]`, `[ 1 , 2 ]`, "[\n1,\t2\r]",
	// Strings, objects, literals and nested arrays: rejected by both.
	`"0.5"`, `"NaN"`, `"Infinity"`, `{"a": 1}`, `{}`, `true`, `false`,
	`[[1]]`, `[1, [2]]`, `[[]]`, `["1"]`, `[1, "a"]`, `[{}]`, `[true]`,
	// Null: the one allowed difference.
	`null`, `[null]`, `[1, null]`, `[null, 1]`,
	// Whole bodies of both endpoints.
	`{"report": 0.5}`, `{"report": [3, 17, 40]}`, `{"stream": "oue", "report": []}`,
	`{"Report": -0}`, `{"REPORT": 1, "report": 2}`, `{"stream": "a\u0062", "report": 1}`,
	`{"report": 1, "extra": [null]}`, `{"report": null}`, `{"report": [null]}`,
	`{"report": null, "report": 1}`, `{"report": 1, "report": null}`,
	`{"reports": [0.1, [2, 3], -0, []]}`, `{"reports": []}`, `{"reports": null}`,
	`{"reports": [null, 0.5]}`, `{"reports": [[null]]}`, `{"Reports": [1e999]}`,
	`{"reports": [0.5, "x"]}`, `{"reports": {"a": 1}}`, `{"reports": 0.5}`,
	`{"stream": 3, "report": 0.5}`, `{"report": 0.5} `, `{"report":`, `[]`, ``,
}

func TestReportDecodeMatchesOracle(t *testing.T) {
	for _, in := range reportDecodeCases {
		checkReportDecode(t, []byte(in))
	}
	// The allowed difference is real: the oracle counts a null as 0.
	var o oracleWireReport
	if err := o.UnmarshalJSON([]byte(`null`)); err != nil || !sameBits(o, []float64{0}) {
		t.Fatalf("oracle decodes null as %v, %v; want [0]", o, err)
	}
}

func FuzzReportDecodeOracle(f *testing.F) {
	for _, in := range reportDecodeCases {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		checkReportDecode(t, input)
	})
}
