package can

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ErrBadDumpLine reports an unparsable capture line.
var ErrBadDumpLine = errors.New("can: malformed dump line")

// ParseDumpLine parses one candump-style "(timestamp) ID#DATA" line, the
// format Dump emits ("(000012.345678) 7E0#021003"). Lines from a real
// candump on hardware, with an interface column, parse too.
func ParseDumpLine(line string) (Frame, error) {
	open := strings.IndexByte(line, '(')
	closeIdx := strings.IndexByte(line, ')')
	if open != 0 || closeIdx < 0 {
		return Frame{}, fmt.Errorf("%w: missing timestamp in %q", ErrBadDumpLine, line)
	}
	tsText := strings.TrimSpace(line[1:closeIdx])
	seconds, err := strconv.ParseFloat(tsText, 64)
	if err != nil {
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
	f.Timestamp = time.Duration(seconds * float64(time.Second))
	return f, nil
}
