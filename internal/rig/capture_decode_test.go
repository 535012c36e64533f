package rig

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/faults"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

// oracleReadCapture is the reference decoder: encoding/json over the
// envelope, which is what ReadCapture must agree with.
func oracleReadCapture(data []byte) (Capture, error) {
	var env captureEnvelope
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return Capture{}, err
	}
	if env.Version != captureFormatVersion {
		return Capture{}, errors.New("wrong version")
	}
	return env.Capture, nil
}

// checkAgainstOracle decodes data both ways and fails unless both fail,
// or both succeed with deeply equal captures. It returns ReadCapture's
// error.
func checkAgainstOracle(t testing.TB, data []byte) error {
	t.Helper()
	want, wantErr := oracleReadCapture(data)
	got, err := ReadCapture(bytes.NewReader(data))
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ReadCapture err = %v, encoding/json err = %v\ninput: %q", err, wantErr, clip(data))
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadCapture = %+v\nencoding/json = %+v\ninput: %q", clipValue(got), clipValue(want), clip(data))
	}
	return err
}

func clip(b []byte) []byte {
	if len(b) > 400 {
		return b[:400]
	}
	return b
}

func clipValue(c Capture) string { return string(clip([]byte(fmt.Sprintf("%+v", c)))) }

// saveBody returns c as Save writes it.
func saveBody(t testing.TB, c Capture) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fleetCapture runs the full collection session for car at the default
// configuration and the given rig seed.
func fleetCapture(t testing.TB, p vehicle.Profile, seed int64) Capture {
	t.Helper()
	tool, veh, err := diagtool.ForProfile(p, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	defer tool.Close()
	defer veh.Close()
	cfg := DefaultConfig()
	cfg.Seed = seed
	r := New(tool, veh, cfg)
	defer r.Close()
	c, err := r.RunFull()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// smallCarM is a trimmed real Car M capture: a few of each element kind,
// small enough for the fuzzer to mutate quickly.
func smallCarM(t testing.TB) Capture {
	p, _ := vehicle.ProfileByCar("Car M")
	c := fleetCapture(t, p, 1)
	c.Frames = c.Frames[:min(len(c.Frames), 6)]
	c.UIFrames = c.UIFrames[:min(len(c.UIFrames), 2)]
	for i := range c.UIFrames {
		f := &c.UIFrames[i]
		f.Texts = f.Texts[:min(len(f.Texts), 3)]
	}
	c.Clicks = c.Clicks[:min(len(c.Clicks), 2)]
	return c
}

// TestReadCaptureMatchesOracleOnFleet decodes every fleet capture, clean
// and through each fault preset, and requires that the straight pass
// takes it (no encoding/json fallback) and that it decodes as
// encoding/json decodes it.
func TestReadCaptureMatchesOracleOnFleet(t *testing.T) {
	seeds := []int64{1, 2, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	presets := []string{"default", "heavy", "adversarial"}
	for _, seed := range seeds {
		for _, p := range vehicle.Fleet() {
			clean := fleetCapture(t, p, seed)
			variants := map[string]Capture{"clean": clean}
			for _, name := range presets {
				spec, err := faults.ParseSpec(name)
				if err != nil {
					t.Fatal(err)
				}
				inj := faults.New(spec, 1)
				c := clean
				c.Frames = inj.Frames(c.Frames)
				c.UIFrames = inj.UIFrames(c.UIFrames)
				variants[name] = c
			}
			for name, c := range variants {
				body := saveBody(t, c)
				if _, ok := newDecoder().envelope(body); !ok {
					t.Errorf("%s seed %d %s: the straight pass declined Save's output", p.Car, seed, name)
				}
				if err := checkAgainstOracle(t, body); err != nil {
					t.Fatalf("%s seed %d %s: %v", p.Car, seed, name, err)
				}
			}
		}
	}
}

// envelope wraps a capture object in a v1 envelope.
func envelope(capture string) string { return `{"version":1,"capture":` + capture + `}` }

// maxNestingDepth is encoding/json's container nesting limit.
const maxNestingDepth = 10000

// nested returns depth arrays nested inside one another.
func nested(depth int) string { return strings.Repeat("[", depth) + strings.Repeat("]", depth) }

// decodeCases are the inputs whose handling encoding/json defines in
// detail. Each one must match the oracle; wantErr pins which way it goes.
//
// The capture once carried laid-out Rows and a Corrupted flag in each UI
// frame; the cases that name them (Parsed, ParseOK, Label, Unit inside
// Rows) keep their documents, and now pin that old members are skipped as
// unknown keys, so only their syntax can fail them.
var decodeCases = []struct {
	name    string
	in      string
	wantErr bool
}{
	{"minimal", envelope(`{}`), false},
	{"whitespace everywhere", " \t\r\n{ \"version\" :\n1 ,\t\"capture\" : { \"Frames\" : [ { \"ID\" : 1 , \"Data\" : [ 1 , 2 ] } ] } } ", false},
	{"escapes", envelope(`{"Car":"A\"b\\c\/d\be\ff\ng\rh\ti"}`), false},
	{"unicode escape", envelope(`{"Car":"\u00e9t\u00C9"}`), false},
	{"surrogate pair", envelope(`{"Car":"\ud83d\ude97"}`), false},
	{"lone surrogate", envelope(`{"Car":"\ud83d"}`), false},
	{"surrogate then letter", envelope(`{"Car":"\ud83dA"}`), false},
	{"invalid utf-8", envelope("{\"Car\":\"a\xff\xfeb\"}"), false},
	{"cut utf-8 sequence", envelope("{\"Car\":\"\xe2\x82\"}"), false},
	{"raw multibyte", envelope(`{"Car":"Škoda €"}`), false},
	{"folded keys", envelope(`{"car":"x","TOOLNAME":"y","frames":[{"id":5,"dAtA":[1],"LEN":1}]}`), false},
	{"kelvin sign key", envelope(`{"UIFrames":[{"Rows":[{"PARSEO\u212a":true,"Y":1},{"parseo` + "\u212a" + `":true}]}]}`), false},
	{"long s key", envelope(`{"UIFrames":[{"\u017fcreenName":"menu"},{"` + "\u017f" + `CREENNAME":"m2"}]}`), false},
	{"dotless i key is not I", envelope(`{"Frames":[{"` + "\u0131" + `D":7}]}`), false},
	{"escaped exact key", envelope(`{"\u0043ar":"x","\u0063AR":"y"}`), false},
	{"unknown keys", envelope(`{"Bogus":{"a":[1,2.5e-3,{"b":null,"c":true,"d":false}],"e":"A"},"Car":"x"}`), false},
	{"duplicate key", envelope(`{"Car":"a","Car":"b"}`), false},
	{"duplicate key then null", envelope(`{"Car":"a","Car":null}`), false},
	{"duplicate arrays merge", envelope(`{"Frames":[{"ID":1,"Len":3},{"ID":2}],"Frames":[{"ID":7}]}`), false},
	{"duplicate arrays expose truncated elements", envelope(`{"Frames":[{"ID":1},{"ID":2,"Len":5},{"ID":3}],"Frames":[{"ID":9}],"Frames":[{"ID":8},{"Data":[4]}]}`), false},
	{"duplicate nested arrays", envelope(`{"UIFrames":[{"Rows":[{"Label":"a"},{"Label":"b"}]}],"UIFrames":[{"Rows":[{"Unit":"km/h"}]}]}`), false},
	{"duplicate nested texts", envelope(`{"UIFrames":[{"Texts":[{"Content":"a"},{"Content":"b","X":4}]}],"UIFrames":[{"Texts":[{"Y":7}]}]}`), false},
	{"legacy rows and corrupted", envelope(`{"UIFrames":[{"At":5,"ScreenName":"obd-live","Title":"OBD-II Live Data","Rows":[{"Index":0,"Label":"Vehicle Speed","Unit":"km/h","Value":"42.00","Parsed":42,"ParseOK":true,"Y":60}],"Texts":[{"Content":"Vehicle Speed","X":40,"Y":60,"W":360,"H":40}],"Corrupted":false}]}`), false},
	{"duplicate envelope key", `{"version":1,"capture":{"Car":"a","Frames":[{"ID":1}]},"capture":{"Model":"m","Frames":[{"Len":2}]}}`, false},
	{"null slice", envelope(`{"Frames":null}`), false},
	{"empty slice", envelope(`{"Frames":[]}`), false},
	{"slice then null", envelope(`{"Frames":[{"ID":1}],"Frames":null}`), false},
	{"slice then empty", envelope(`{"Frames":[{"ID":1}],"Frames":[]}`), false},
	{"null struct", envelope(`{"Frames":[null,{"ID":1}]}`), false},
	{"null capture", `{"version":1,"capture":null}`, false},
	{"null scalars", envelope(`{"Car":null,"Protocol":null,"Frames":[{"ID":null,"Extended":null,"Data":null,"Len":null,"Timestamp":null}]}`), false},
	{"short data", envelope(`{"Frames":[{"Data":[1,2]}]}`), false},
	{"long data", envelope(`{"Frames":[{"Data":[1,2,3,4,5,6,7,8,9,"x",{"y":[null]}]}]}`), false},
	{"data null element", envelope(`{"Frames":[{"Data":[1,2,3]}],"Frames":[{"Data":[4,null]}]}`), false},
	{"data element 255", envelope(`{"Frames":[{"Data":[255]}]}`), false},
	{"data element 256", envelope(`{"Frames":[{"Data":[256]}]}`), true},
	{"data element negative", envelope(`{"Frames":[{"Data":[-1]}]}`), true},
	{"data as base64", envelope(`{"Frames":[{"Data":"AQID"}]}`), true},
	{"long data bad tail", envelope(`{"Frames":[{"Data":[1,2,3,4,5,6,7,8,9,]}]}`), true},
	{"exponent into int", envelope(`{"Frames":[{"Len":1e3}]}`), true},
	{"fraction into int", envelope(`{"Frames":[{"Len":1.0}]}`), true},
	{"exponent into float", envelope(`{"UIFrames":[{"Rows":[{"Parsed":1e3}]}]}`), false},
	{"negative zero float", envelope(`{"UIFrames":[{"Rows":[{"Parsed":-0.0}]}]}`), false},
	{"float overflow", envelope(`{"UIFrames":[{"Rows":[{"Parsed":1e400}]}]}`), false},
	{"float underflow", envelope(`{"UIFrames":[{"Rows":[{"Parsed":1e-400}]}]}`), false},
	{"negative id", envelope(`{"Frames":[{"ID":-1}]}`), true},
	{"negative zero id", envelope(`{"Frames":[{"ID":-0}]}`), true},
	{"negative zero int", envelope(`{"Frames":[{"Len":-0}]}`), false},
	{"negative int", envelope(`{"Frames":[{"Len":-3}]}`), false},
	{"max uint32 id", envelope(`{"Frames":[{"ID":4294967295}]}`), false},
	{"uint32 overflow id", envelope(`{"Frames":[{"ID":4294967296}]}`), true},
	{"max int64", envelope(`{"Frames":[{"Timestamp":9223372036854775807}]}`), false},
	{"int64 overflow", envelope(`{"Frames":[{"Timestamp":9223372036854775808}]}`), true},
	{"min int64", envelope(`{"Frames":[{"Timestamp":-9223372036854775808}]}`), false},
	{"int64 underflow", envelope(`{"Frames":[{"Timestamp":-9223372036854775809}]}`), true},
	{"huge integer", envelope(`{"Frames":[{"Len":123456789012345678901234567890}]}`), true},
	{"trailing bytes", envelope(`{}`) + ` garbage {`, false},
	{"trailing brace", envelope(`{}`) + `}`, false},
	{"wrong version", `{"version":2,"capture":{}}`, true},
	{"missing version", `{"capture":{}}`, true},
	{"string version", `{"version":"1","capture":{}}`, true},
	{"fractional version", `{"version":1.0,"capture":{}}`, true},
	{"null version", `{"version":null,"capture":{}}`, true},
	{"folded version key", `{"VERSION":1,"Capture":{"Car":"x"}}`, false},
	{"top-level null", `null`, true},
	{"top-level array", `[]`, true},
	{"top-level string", `"x"`, true},
	{"top-level number", `1`, true},
	{"empty input", ``, true},
	{"whitespace only", " \n\t", true},
	{"byte order mark", "\xef\xbb\xbf" + envelope(`{}`), true},
	{"object trailing comma", envelope(`{"Car":"x",}`), true},
	{"array trailing comma", envelope(`{"Frames":[{"ID":1},]}`), true},
	{"leading comma", envelope(`{"Frames":[,{"ID":1}]}`), true},
	{"missing comma", envelope(`{"Car":"x" "Model":"y"}`), true},
	{"missing colon", envelope(`{"Car" "x"}`), true},
	{"unquoted key", envelope(`{Car:"x"}`), true},
	{"single quotes", envelope(`{'Car':'x'}`), true},
	{"leading zero", envelope(`{"Frames":[{"ID":01}]}`), true},
	{"bare minus", envelope(`{"Frames":[{"ID":-}]}`), true},
	{"bare decimal point", envelope(`{"Frames":[{"Len":1.}]}`), true},
	{"leading decimal point", envelope(`{"Frames":[{"Len":.5}]}`), true},
	{"plus sign", envelope(`{"Frames":[{"Len":+1}]}`), true},
	{"bare exponent", envelope(`{"UIFrames":[{"Rows":[{"Parsed":1e}]}]}`), true},
	{"NaN", envelope(`{"UIFrames":[{"Rows":[{"Parsed":NaN}]}]}`), true},
	{"control char in string", envelope("{\"Car\":\"a\tb\"}"), true},
	{"bad escape", envelope(`{"Car":"\x41"}`), true},
	{"short unicode escape", envelope(`{"Car":"\u12"}`), true},
	{"bad hex escape", envelope(`{"Car":"\u12g4"}`), true},
	{"bad escape in unknown value", envelope(`{"Bogus":"\q"}`), true},
	{"bad literal", envelope(`{"Frames":[{"Extended":tru}]}`), true},
	{"literal with tail", envelope(`{"Frames":[{"Extended":truex}]}`), true},
	{"null with tail", envelope(`{"Car":nulls}`), true},
	{"number with tail", envelope(`{"Frames":[{"ID":1x}]}`), true},
	{"string into int", envelope(`{"Frames":[{"Len":"8"}]}`), true},
	{"number into string", envelope(`{"Car":1}`), true},
	{"object into string", envelope(`{"Car":{}}`), true},
	{"object into slice", envelope(`{"Frames":{}}`), true},
	{"number into struct", envelope(`{"Frames":[1]}`), true},
	{"array into struct", `{"version":1,"capture":[]}`, true},
	{"string into bool", envelope(`{"Frames":[{"Extended":"true"}]}`), true},
	{"number into bool", envelope(`{"Frames":[{"Extended":0}]}`), true},
	{"bool into int", envelope(`{"Frames":[{"Len":true}]}`), true},
	{"string into float", envelope(`{"UIFrames":[{"Rows":[{"Parsed":"1"}]}]}`), false},
	{"type error then syntax error", envelope(`{"Car":1,`), true},
	{"depth at the limit", envelope(`{"Bogus":` + nested(maxNestingDepth-2) + `}`), false},
	{"depth past the limit", envelope(`{"Bogus":` + nested(maxNestingDepth-1) + `}`), true},
	{"truncated", envelope(`{"Frames":[{"ID":1,"Data":[1,2`), true},
	{"truncated string", envelope(`{"Car":"abc`), true},
	{"truncated escape", envelope(`{"Car":"abc\`), true},
	{"truncated after key", envelope(`{"Car"`), true},
}

func TestReadCaptureMatchesOracleOnEdgeCases(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkAgainstOracle(t, []byte(tc.in))
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
		})
	}
}

func TestReadCaptureMatchesOracleOnTruncations(t *testing.T) {
	body := saveBody(t, smallCarM(t))
	for n := 0; n < len(body); n += 7 {
		checkAgainstOracle(t, body[:n])
	}
	checkAgainstOracle(t, body)
}

// Save writes every frame and text like these.
const (
	saveFrame = `{"ID":2024,"Extended":false,"Data":[2,65,13,0,0,0,0,0],"Len":8,"Timestamp":123456}`
	saveText  = `{"Content":"Vehicle Speed","X":40,"Y":60,"W":360,"H":40}`
)

// nearSaveCases are frame and text objects one step from saveFrame or
// saveText. straight says whether the straight pass reads them inside a
// Save-layout envelope; the rest send the whole body to encoding/json.
var nearSaveCases = []struct {
	name     string
	frame    bool
	obj      string
	straight bool
}{
	{"save frame", true, saveFrame, true},
	{"extended frame", true, `{"ID":418119921,"Extended":true,"Data":[255,0,1,2,3,4,5,6],"Len":3,"Timestamp":0}`, true},
	{"max values", true, `{"ID":4294967295,"Extended":false,"Data":[255,255,255,255,255,255,255,255],"Len":9223372036854775807,"Timestamp":9223372036854775807}`, true},
	{"min values", true, `{"ID":0,"Extended":false,"Data":[0,0,0,0,0,0,0,0],"Len":-9223372036854775808,"Timestamp":-9223372036854775808}`, true},
	{"19-digit timestamp", true, `{"ID":1,"Extended":false,"Data":[0,0,0,0,0,0,0,0],"Len":0,"Timestamp":1234567890123456789}`, true},
	{"20-digit timestamp", true, `{"ID":1,"Extended":false,"Data":[0,0,0,0,0,0,0,0],"Len":0,"Timestamp":12345678901234567890}`, false},
	{"2^64 wraps to 0", true, `{"ID":1,"Extended":false,"Data":[0,0,0,0,0,0,0,0],"Len":0,"Timestamp":18446744073709551616}`, false},
	{"timestamp past int64", true, `{"ID":1,"Extended":false,"Data":[0,0,0,0,0,0,0,0],"Len":0,"Timestamp":9223372036854775808}`, false},
	{"timestamp past -int64", true, `{"ID":1,"Extended":false,"Data":[0,0,0,0,0,0,0,0],"Len":0,"Timestamp":-9223372036854775809}`, false},
	{"swapped members", true, `{"Extended":false,"ID":2024,"Data":[2,65,13,0,0,0,0,0],"Len":8,"Timestamp":123456}`, false},
	{"whitespace", true, `{"ID": 2024,"Extended":false,"Data":[2,65,13,0,0,0,0,0],"Len":8,"Timestamp":123456}`, false},
	{"leading whitespace", true, ` ` + saveFrame, false},
	{"negative zero", true, `{"ID":2024,"Extended":false,"Data":[2,65,13,0,0,0,0,0],"Len":-0,"Timestamp":123456}`, true},
	{"negative timestamp", true, `{"ID":2024,"Extended":false,"Data":[2,65,13,0,0,0,0,0],"Len":8,"Timestamp":-5}`, true},
	{"negative zero id", true, `{"ID":-0,"Extended":false,"Data":[2,65,13,0,0,0,0,0],"Len":8,"Timestamp":123456}`, false},
	{"negative data", true, `{"ID":2024,"Extended":false,"Data":[2,-65,13,0,0,0,0,0],"Len":8,"Timestamp":123456}`, false},
	{"bare minus", true, `{"ID":2024,"Extended":false,"Data":[2,65,13,0,0,0,0,0],"Len":-,"Timestamp":123456}`, false},
	{"leading zeros", true, `{"ID":2024,"Extended":false,"Data":[2,65,13,0,0,0,0,0],"Len":007,"Timestamp":123456}`, false},
	{"exponent", true, `{"ID":2024,"Extended":false,"Data":[2,65,13,0,0,0,0,0],"Len":1e3,"Timestamp":123456}`, false},
	{"fraction", true, `{"ID":2024,"Extended":false,"Data":[2,65,13,0,0,0,0,0],"Len":8.0,"Timestamp":123456}`, false},
	{"id 2^32", true, `{"ID":4294967296,"Extended":false,"Data":[2,65,13,0,0,0,0,0],"Len":8,"Timestamp":123456}`, false},
	{"data 256", true, `{"ID":2024,"Extended":false,"Data":[2,65,256,0,0,0,0,0],"Len":8,"Timestamp":123456}`, false},
	{"7 data values", true, `{"ID":2024,"Extended":false,"Data":[2,65,13,0,0,0,0],"Len":8,"Timestamp":123456}`, false},
	{"9 data values", true, `{"ID":2024,"Extended":false,"Data":[2,65,13,0,0,0,0,0,9],"Len":8,"Timestamp":123456}`, false},
	{"null extended", true, `{"ID":2024,"Extended":null,"Data":[2,65,13,0,0,0,0,0],"Len":8,"Timestamp":123456}`, false},
	{"null data", true, `{"ID":2024,"Extended":false,"Data":null,"Len":8,"Timestamp":123456}`, false},
	{"folded key", true, `{"id":2024,"Extended":false,"Data":[2,65,13,0,0,0,0,0],"Len":8,"Timestamp":123456}`, false},
	{"missing member", true, `{"ID":2024,"Extended":false,"Data":[2,65,13,0,0,0,0,0],"Len":8}`, false},
	{"extra member", true, `{"ID":2024,"Extended":false,"Data":[2,65,13,0,0,0,0,0],"Len":8,"Timestamp":123456,"ID":7}`, false},
	{"truncated", true, `{"ID":2024,"Extended":false,"Data":[2,65,13`, false},
	{"null frame", true, `null`, false},
	{"save text", false, saveText, true},
	{"empty content", false, `{"Content":"","X":0,"Y":0,"W":0,"H":0}`, true},
	{"printable ascii", false, `{"Content":"~!#$%&'()*+,-./:;<=>?@[]^_{|}` + "\x7f" + `","X":1,"Y":2,"W":3,"H":4}`, true},
	{"escaped content", false, `{"Content":"a\"b","X":40,"Y":60,"W":360,"H":40}`, true},
	{"unicode escape", false, `{"Content":"\u003c40","X":40,"Y":60,"W":360,"H":40}`, true},
	{"escaped backslash before quote", false, `{"Content":"a\\","X":40,"Y":60,"W":360,"H":40}`, true},
	{"bad escape", false, `{"Content":"a\qb","X":40,"Y":60,"W":360,"H":40}`, false},
	{"lone surrogate escape", false, `{"Content":"\ud83d","X":40,"Y":60,"W":360,"H":40}`, true},
	{"non-ascii content", false, `{"Content":"Öltemperatur °C","X":40,"Y":60,"W":360,"H":40}`, true},
	{"replacement character", false, `{"Content":"1` + "\ufffd" + `5","X":40,"Y":60,"W":360,"H":40}`, true},
	{"invalid utf-8", false, `{"Content":"a` + "\xff" + `b","X":40,"Y":60,"W":360,"H":40}`, false},
	{"invalid utf-8 beside an escape", false, `{"Content":"a` + "\xff" + `\nb","X":40,"Y":60,"W":360,"H":40}`, true},
	{"control byte", false, `{"Content":"a` + "\t" + `b","X":40,"Y":60,"W":360,"H":40}`, false},
	{"null content", false, `{"Content":null,"X":40,"Y":60,"W":360,"H":40}`, false},
	{"negative x", false, `{"Content":"Vehicle Speed","X":-40,"Y":60,"W":360,"H":40}`, true},
	{"swapped text members", false, `{"X":40,"Content":"Vehicle Speed","Y":60,"W":360,"H":40}`, false},
	{"text whitespace", false, `{"Content":"Vehicle Speed", "X":40,"Y":60,"W":360,"H":40}`, false},
	{"unterminated content", false, `{"Content":"Vehicle`, false},
	{"unterminated escape", false, `{"Content":"Vehicle\`, false},
}

// saveDocument places obj between two Save-shaped objects of its kind in
// an envelope laid out as Save writes it.
func saveDocument(frame bool, obj string) string {
	frames, texts := "null", `[]`
	if frame {
		frames = `[` + saveFrame + `,` + obj + `,` + saveFrame + `]`
	} else {
		texts = `[` + saveText + `,` + obj + `,` + saveText + `]`
	}
	return `{"version":1,"capture":{"Car":"Car M","Model":"","ToolName":"t","Protocol":2,"Frames":` + frames +
		`,"UIFrames":[{"At":5,"ScreenName":"obd-live","Title":"","Texts":` + texts + `},{"At":6,"ScreenName":"","Title":"","Texts":null}]` +
		`,"Clicks":[{"At":7,"X":-1,"Y":2,"Text":"\u003cback-arrow\u003e","Hit":true}]}}` + "\n"
}

// nearSaveDocument places obj between two Save-shaped objects of its
// kind, and again in a repeated array.
func nearSaveDocument(frame bool, obj string) string {
	if frame {
		return envelope(`{"Frames":[` + saveFrame + `,` + obj + `,` + saveFrame + `],"Frames":[` + obj + `]}`)
	}
	return envelope(`{"UIFrames":[{"At":5,"Texts":[` + saveText + `,` + obj + `,` + saveText + `]},{"Texts":[` + obj + `]}]}`)
}

// TestReadCaptureNearSaveObjects checks the straight pass takes exactly
// the objects it should, and that either way the document decodes as
// encoding/json decodes it.
func TestReadCaptureNearSaveObjects(t *testing.T) {
	for _, tc := range nearSaveCases {
		t.Run(tc.name, func(t *testing.T) {
			doc := []byte(saveDocument(tc.frame, tc.obj))
			if _, took := newDecoder().envelope(doc); took != tc.straight {
				t.Fatalf("straight pass took it: %v, want %v", took, tc.straight)
			}
			checkAgainstOracle(t, doc)
			checkAgainstOracle(t, []byte(nearSaveDocument(tc.frame, tc.obj)))
		})
	}
}

// errAfter is a reader that returns its bytes and then a non-EOF error.
type errAfter struct{ r *bytes.Reader }

func (e errAfter) Read(p []byte) (int, error) {
	if e.r.Len() == 0 {
		return 0, errors.New("connection reset")
	}
	return e.r.Read(p)
}

func TestReadCaptureReadErrorAfterEnvelope(t *testing.T) {
	if _, err := ReadCapture(errAfter{bytes.NewReader([]byte(envelope(`{"Car":"x"}`)))}); err != nil {
		t.Fatalf("complete envelope before the read error: %v", err)
	}
	_, err := ReadCapture(errAfter{bytes.NewReader([]byte(envelope(`{"Car":"x"`)))})
	if err == nil || !strings.Contains(err.Error(), "connection reset") {
		t.Fatalf("cut envelope: err = %v, want the read error", err)
	}
}

// mutations returns variants of a real body that exercise the decoder's
// less common paths, for the fuzz corpus.
func mutations(body []byte) [][]byte {
	s := string(body)
	texts := regexp.MustCompile(`"Texts":\[[^\]]*\]`).FindStringIndex(s)
	return [][]byte{
		[]byte(strings.Replace(s, `"ID":`, `"id":`, 1)),
		[]byte(strings.Replace(s, `"Frames":[`, `"Frames":null,"Frames":[`, 1)),
		[]byte(strings.Replace(s, `"Data":[`, `"Data":[256,`, 1)),
		[]byte(strings.Replace(s, `"Content":"`, `"Content":"é\ud83d`, 1)),
		[]byte(strings.Replace(s, `"Clicks":[`, `"Clicks":[],"Bogus":[{"x":1e5}],"Clicks":[`, 1)),
		// The older format: laid-out Rows and a Corrupted flag in a UI frame.
		[]byte(strings.Replace(s, `"Texts":`, `"Rows":[{"Index":0,"Label":"x","Unit":"rpm","Value":"1.50","Parsed":1.5,"ParseOK":true,"Y":60}],"Corrupted":true,"Texts":`, 1)),
		[]byte(strings.ReplaceAll(s, ",", " , ")),
		// One step off Save's layout in a frame or a text, so the fuzzer
		// starts from both sides of the straight pass.
		[]byte(strings.Replace(s, `{"ID":`, `{"Extended":true,"ID":`, 1)),
		[]byte(strings.Replace(s, `"Extended":false`, `"Extended":null`, 1)),
		[]byte(strings.Replace(s, `"Data":[`, `"Data":[7,`, 1)),
		[]byte(strings.Replace(s, `"Len":`, `"Len":-0,"Len":`, 1)),
		[]byte(strings.Replace(s, `,"Timestamp":`, `,"Timestamp":1e3,"Timestamp":`, 1)),
		[]byte(strings.Replace(s, `,"Timestamp":`, `,"Timestamp":9999999999999999999,"Timestamp":`, 1)),
		[]byte(strings.Replace(s, `"Content":"`, `"Content":"\u0041`, 1)),
		[]byte(strings.Replace(s, `"X":`, `"X":-`, 1)),
		[]byte(strings.Replace(s, `"X":`, `"X":00`, 1)),
		// Branches of the straight pass over the whole envelope: an
		// escaped click text, a raw invalid UTF-8 byte, a null and an
		// empty array, and bytes after the envelope.
		[]byte(strings.Replace(s, `"Text":"`, `"Text":"\u003cback\"`, 1)),
		[]byte(strings.Replace(s, `"Content":"`, "\"Content\":\"\xff", 1)),
		[]byte(s[:texts[0]] + `"Texts":null` + s[texts[1]:]),
		[]byte(s[:strings.LastIndex(s, `"Clicks":`)] + `"Clicks":[]}}` + "\n"),
		[]byte(s + `{"version":2}`),
		body[:len(body)/2],
	}
}

func FuzzReadCapture(f *testing.F) {
	for _, tc := range decodeCases {
		// The depth cases are 20 KB of brackets that would slow every
		// mutation; the edge-case test runs them.
		if !strings.HasPrefix(tc.name, "depth") {
			f.Add([]byte(tc.in))
		}
	}
	body := saveBody(f, smallCarM(f))
	f.Add(body)
	for _, m := range mutations(body) {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoding the seed body first leaves the pooled scratch full of
		// its buffers, so the input decodes over reused memory.
		if _, err := ReadCapture(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, data)
	})
}

// reuseBodies returns a full Car M body, a small one and a malformed one.
func reuseBodies(t testing.TB) [][]byte {
	p, _ := vehicle.ProfileByCar("Car M")
	large := saveBody(t, fleetCapture(t, p, 1))
	return [][]byte{large, saveBody(t, smallCarM(t)), large[:len(large)/2]}
}

// zeroed reports whether a buffer holds nothing up to its capacity.
func zeroed[T any](s []T) bool {
	for _, v := range s[:cap(s)] {
		if !reflect.ValueOf(v).IsZero() {
			return false
		}
	}
	return true
}

// TestDecoderReuse decodes a large capture, a small one, a malformed one
// and the small one again on one reused decoder and through ReadCapture's
// pool. Every result must equal a fresh decoder's, and a reset decoder
// must hold no reference into the capture it decoded.
func TestDecoderReuse(t *testing.T) {
	bodies := reuseBodies(t)
	reused := newDecoder()
	for i, body := range append(bodies, bodies[1]) {
		want, wantOK := newDecoder().envelope(body)
		got, ok := reused.envelope(body)
		if ok != wantOK || ok && !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %d on a reused decoder: took %v, want %v", i, ok, wantOK)
		}
		reused.reset()
		if !zeroed(reused.uiFrames) || !zeroed(reused.texts) ||
			!zeroed(reused.clicks) || len(reused.strs) != 0 || reused.data != nil {
			t.Fatalf("decode %d: reset left references in the decoder", i)
		}
		pooled, err := ReadCapture(bytes.NewReader(body))
		if (err == nil) != wantOK || err == nil && !reflect.DeepEqual(pooled, want.Capture) {
			t.Fatalf("decode %d through the pool: err %v, want success %v", i, err, wantOK)
		}
	}
}

// TestReadCaptureConcurrent decodes from several goroutines at once, so
// that -race sees the pool hand each decode its own scratch.
func TestReadCaptureConcurrent(t *testing.T) {
	bodies := reuseBodies(t)
	wants := make([]Capture, len(bodies))
	for i, body := range bodies {
		env, ok := newDecoder().envelope(body)
		if ok != (i != 2) {
			t.Fatalf("body %d: straight pass took it: %v", i, ok)
		}
		wants[i] = env.Capture
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (g + i) % len(bodies)
				got, err := ReadCapture(bytes.NewReader(bodies[k]))
				if (err == nil) != (k != 2) || err == nil && !reflect.DeepEqual(got, wants[k]) {
					t.Errorf("goroutine %d, body %d: err %v or a capture unlike a fresh decode", g, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// sink keeps benchmark results live.
var sink Capture

// BenchmarkReadCapture decodes a full Car M capture, and with the
// encoding/json oracle for comparison.
func BenchmarkReadCapture(b *testing.B) {
	p, _ := vehicle.ProfileByCar("Car M")
	body := saveBody(b, fleetCapture(b, p, 1))
	for _, bc := range []struct {
		name   string
		decode func([]byte) (Capture, error)
	}{
		{"decoder", func(data []byte) (Capture, error) { return ReadCapture(bytes.NewReader(data)) }},
		{"encoding-json", oracleReadCapture},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := bc.decode(body)
				if err != nil {
					b.Fatal(err)
				}
				sink = c
			}
		})
	}
}
