package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level is a log severity.
type Level int8

// Log severities, lowest first.
const (
	// LevelInfo is normal operational events.
	LevelInfo Level = iota
	// LevelWarn is degraded-but-serving conditions (brownout shifts,
	// WAL degradation, circuit openings).
	LevelWarn
	// LevelError is failures that lost work (panics, write errors).
	LevelError
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "info"
	}
}

// Logger is a small leveled structured logger: each event is a message
// plus alternating key/value pairs, rendered either as one JSON object
// per line ("json") or a human-readable line ("text"). It replaces raw
// log.Printf in the serving path so panic stacks, WAL-degradation flips
// and brownout level shifts are machine-parseable events.
//
// A nil *Logger discards everything (all methods are nil-safe).
type Logger struct {
	mu   sync.Mutex
	w    io.Writer
	json bool
}

// NewLogger builds a logger writing to w in the given format ("text" or
// "json"; empty means text).
func NewLogger(w io.Writer, format string) (*Logger, error) {
	l := &Logger{w: w}
	switch format {
	case "", "text":
	case "json":
		l.json = true
	default:
		return nil, fmt.Errorf("log format %q (want text or json)", format)
	}
	return l, nil
}

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv...) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv...) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv...) }

// Logf is a Printf-shaped adapter logging at LevelInfo — it satisfies the
// legacy logf seams (persist.Options.Logf) so durability state
// transitions flow through the structured logger.
func (l *Logger) Logf(format string, args ...any) {
	l.log(LevelInfo, fmt.Sprintf(format, args...))
}

func (l *Logger) log(lvl Level, msg string, kv ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return
	}
	now := time.Now().Format(time.RFC3339Nano)
	if l.json {
		obj := make(map[string]any, 3+len(kv)/2)
		obj["ts"] = now
		obj["level"] = lvl.String()
		obj["msg"] = msg
		for i := 0; i+1 < len(kv); i += 2 {
			k, ok := kv[i].(string)
			if !ok {
				k = fmt.Sprint(kv[i])
			}
			obj[k] = jsonable(kv[i+1])
		}
		line, err := json.Marshal(obj)
		if err != nil {
			line = []byte(fmt.Sprintf(`{"ts":%q,"level":%q,"msg":%q}`, now, lvl, msg))
		}
		_, _ = l.w.Write(append(line, '\n'))
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %-5s %s", now, strings.ToUpper(lvl.String()), msg)
	for i := 0; i+1 < len(kv); i += 2 {
		fmt.Fprintf(&b, " %v=%v", kv[i], kv[i+1])
	}
	b.WriteByte('\n')
	_, _ = io.WriteString(l.w, b.String())
}

// jsonable coerces values JSON can't encode (errors, Stringers that would
// marshal to "{}") into strings.
func jsonable(v any) any {
	switch x := v.(type) {
	case error:
		return x.Error()
	case time.Duration:
		return x.String()
	default:
		return v
	}
}
