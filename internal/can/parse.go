package can

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ErrBadDumpLine reports an unparsable capture line.
var ErrBadDumpLine = errors.New("can: malformed dump line")

// maxDumpMicros bounds a dump line's timestamp: 2^31 s, about 68 years,
// so candump's Unix-epoch stamps fit until 2038.
const maxDumpMicros = 1 << 31 * 1e6

// ParseDumpLine parses one candump-style "(timestamp) ID#DATA" line, the
// format Dump emits ("(000012.345678) 7E0#021003"). Lines from a real
// candump on hardware, with an interface column, parse too. The stamp is
// rounded to whole microseconds, the resolution the format carries, so
// Dump and ParseDumpLine round-trip a frame exactly; a negative,
// non-finite or ≥ 2^31 s stamp is refused.
func ParseDumpLine(line string) (Frame, error) {
	open := strings.IndexByte(line, '(')
	closeIdx := strings.IndexByte(line, ')')
	if open != 0 || closeIdx < 0 {
		return Frame{}, fmt.Errorf("%w: missing timestamp in %q", ErrBadDumpLine, line)
	}
	tsText := strings.TrimSpace(line[1:closeIdx])
	seconds, err := strconv.ParseFloat(tsText, 64)
	micros := math.Round(seconds * 1e6)
	if err != nil || !(seconds >= 0 && micros < maxDumpMicros) {
		return Frame{}, fmt.Errorf("%w: timestamp %q", ErrBadDumpLine, tsText)
	}
	rest := strings.TrimSpace(line[closeIdx+1:])
	// Hardware candump logs include an interface column ("can0"); skip it.
	if i := strings.IndexByte(rest, ' '); i >= 0 && !strings.Contains(rest[:i], "#") {
		rest = strings.TrimSpace(rest[i+1:])
	}
	hash := strings.IndexByte(rest, '#')
	if hash < 0 {
		return Frame{}, fmt.Errorf("%w: missing '#' in %q", ErrBadDumpLine, line)
	}
	idText, dataText := rest[:hash], rest[hash+1:]
	id64, err := strconv.ParseUint(idText, 16, 32)
	if err != nil {
		return Frame{}, fmt.Errorf("%w: id %q", ErrBadDumpLine, idText)
	}
	data, err := hex.DecodeString(dataText)
	if err != nil {
		return Frame{}, fmt.Errorf("%w: data %q", ErrBadDumpLine, dataText)
	}
	extended := len(idText) > 3 || id64 > 0x7FF
	var f Frame
	if extended {
		f, err = NewExtendedFrame(uint32(id64), data)
	} else {
		f, err = NewFrame(uint32(id64), data)
	}
	if err != nil {
		return Frame{}, err
	}
	f.Timestamp = time.Duration(micros) * time.Microsecond
	return f, nil
}
