// Package temporal implements the temporal types proposed for Cypher 10
// (Section 6 of the paper): the instant types Date and LocalDateTime and the
// Duration type, together with the constructor and accessor functions that
// expose them to queries (date(), datetime(), duration(), year(), month(),
// day(), durationBetween(), ...).
//
// The types implement value.Value (and value.Orderable), so they flow through
// expressions, ORDER BY, DISTINCT and aggregation like any other value.
package temporal

import (
	"fmt"
	"time"

	"repro/internal/eval"
	"repro/internal/value"
)

// Date is a calendar date without a time component.
type Date struct {
	Year  int
	Month time.Month
	Day   int
}

// DateTime is a date with a time-of-day component (no time zone — the
// proposal's LocalDateTime).
type DateTime struct {
	Date
	Hour, Minute, Second, Nanosecond int
}

// Duration is a length of time with month, day and second components, as in
// the openCypher proposal (months and days do not have a fixed length in
// seconds, so they are kept separately).
type Duration struct {
	Months  int
	Days    int
	Seconds int64
	Nanos   int64
}

// Kind reports the Date kind.
func (Date) Kind() value.Kind { return value.KindDate }

// Kind reports the DateTime kind.
func (DateTime) Kind() value.Kind { return value.KindDateTime }

// Kind reports the Duration kind.
func (Duration) Kind() value.Kind { return value.KindDuration }

// String renders the date in ISO-8601 form.
func (d Date) String() string { return fmt.Sprintf("%04d-%02d-%02d", d.Year, int(d.Month), d.Day) }

// String renders the date-time in ISO-8601 form.
func (dt DateTime) String() string {
	s := fmt.Sprintf("%sT%02d:%02d:%02d", dt.Date.String(), dt.Hour, dt.Minute, dt.Second)
	if dt.Nanosecond != 0 {
		s += fmt.Sprintf(".%09d", dt.Nanosecond)
	}
	return s
}

// String renders the duration in ISO-8601 form (P..M..DT..S).
func (d Duration) String() string {
	out := "P"
	if d.Months != 0 {
		out += fmt.Sprintf("%dM", d.Months)
	}
	if d.Days != 0 {
		out += fmt.Sprintf("%dD", d.Days)
	}
	if d.Seconds != 0 || d.Nanos != 0 || (d.Months == 0 && d.Days == 0) {
		out += "T"
		secs := float64(d.Seconds) + float64(d.Nanos)/1e9
		out += fmt.Sprintf("%gS", secs)
	}
	return out
}

// CompareTo orders dates chronologically.
func (d Date) CompareTo(other value.Value) int {
	o, ok := other.(Date)
	if !ok {
		return -1
	}
	return int(d.toTime().Sub(o.toTime()))
}

// CompareTo orders date-times chronologically.
func (dt DateTime) CompareTo(other value.Value) int {
	o, ok := other.(DateTime)
	if !ok {
		return -1
	}
	a, b := dt.toTime(), o.toTime()
	switch {
	case a.Before(b):
		return -1
	case a.After(b):
		return 1
	default:
		return 0
	}
}

// EqualTo compares durations component-wise, as openCypher requires:
// duration({months: 1}) is NOT equal to duration({days: 30}) even though
// they order the same under the nominal-length approximation.
func (d Duration) EqualTo(other value.Value) bool {
	o, ok := other.(Duration)
	return ok && d == o
}

// CompareTo orders durations by their nominal length (months are counted as
// 30 days, as in the openCypher comparability rules for durations).
func (d Duration) CompareTo(other value.Value) int {
	o, ok := other.(Duration)
	if !ok {
		return -1
	}
	a, b := d.approxSeconds(), o.approxSeconds()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func (d Date) toTime() time.Time {
	return time.Date(d.Year, d.Month, d.Day, 0, 0, 0, 0, time.UTC)
}

func (dt DateTime) toTime() time.Time {
	return time.Date(dt.Year, dt.Month, dt.Day, dt.Hour, dt.Minute, dt.Second, dt.Nanosecond, time.UTC)
}

func (d Duration) approxSeconds() float64 {
	return float64(d.Months)*30*86400 + float64(d.Days)*86400 + float64(d.Seconds) + float64(d.Nanos)/1e9
}

// FromTime converts a Go time into a DateTime.
func FromTime(t time.Time) DateTime {
	return DateTime{
		Date:       Date{Year: t.Year(), Month: t.Month(), Day: t.Day()},
		Hour:       t.Hour(),
		Minute:     t.Minute(),
		Second:     t.Second(),
		Nanosecond: t.Nanosecond(),
	}
}

// ParseDate parses an ISO-8601 calendar date (YYYY-MM-DD).
func ParseDate(s string) (Date, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Date{}, fmt.Errorf("temporal: invalid date %q: %v", s, err)
	}
	return Date{Year: t.Year(), Month: t.Month(), Day: t.Day()}, nil
}

// ParseDateTime parses an ISO-8601 date-time (YYYY-MM-DDTHH:MM:SS), with an
// optional fractional-second part and an optional UTC offset suffix — `Z`,
// `±hh:mm` or `±hhmm`. An offset-qualified instant is normalised to UTC
// (the type itself is the proposal's LocalDateTime and carries no zone).
func ParseDateTime(s string) (DateTime, error) {
	// Offset-qualified layouts first: "Z07:00" matches both a literal Z and
	// a numeric ±hh:mm offset, and the ".999999999" fraction is optional at
	// parse time, so these four layouts also cover whole-second inputs.
	for _, layout := range []string{
		"2006-01-02T15:04:05.999999999Z07:00",
		"2006-01-02T15:04:05.999999999Z0700",
		"2006-01-02T15:04Z07:00",
		"2006-01-02T15:04Z0700",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return FromTime(t.UTC()), nil
		}
	}
	for _, layout := range []string{"2006-01-02T15:04:05.999999999", "2006-01-02T15:04:05", "2006-01-02T15:04", "2006-01-02"} {
		if t, err := time.Parse(layout, s); err == nil {
			return FromTime(t), nil
		}
	}
	return DateTime{}, fmt.Errorf("temporal: invalid datetime %q", s)
}

// Between returns the duration from a to b (dates or date-times).
func Between(a, b time.Time) Duration {
	diff := b.Sub(a)
	return Duration{Seconds: int64(diff / time.Second), Nanos: int64(diff % time.Second)}
}

// AddToDate adds a duration to a date.
func AddToDate(d Date, dur Duration) Date {
	t := d.toTime().AddDate(0, dur.Months, dur.Days).Add(time.Duration(dur.Seconds)*time.Second + time.Duration(dur.Nanos))
	return Date{Year: t.Year(), Month: t.Month(), Day: t.Day()}
}

// RegisterFunctions installs the temporal constructor and accessor functions
// into the expression function registry; it is called automatically on
// package import.
func RegisterFunctions() {
	eval.RegisterFunction("date", eval.Args(1), func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		s, ok := value.AsString(args[0])
		if !ok {
			return nil, fmt.Errorf("temporal: date() expects a string, got %s", args[0].Kind())
		}
		d, err := ParseDate(s)
		if err != nil {
			return nil, err
		}
		return d, nil
	})
	eval.RegisterFunction("datetime", eval.Args(1), func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		s, ok := value.AsString(args[0])
		if !ok {
			return nil, fmt.Errorf("temporal: datetime() expects a string, got %s", args[0].Kind())
		}
		dt, err := ParseDateTime(s)
		if err != nil {
			return nil, err
		}
		return dt, nil
	})
	eval.RegisterFunction("duration", eval.Args(1), func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		m, ok := value.AsMap(args[0])
		if !ok {
			return nil, fmt.Errorf("temporal: duration() expects a map like {days: 3, hours: 4}")
		}
		var d Duration
		getInt := func(key string) int64 {
			if v, ok := m.Get(key); ok {
				if i, isInt := value.AsInt(v); isInt {
					return i
				}
			}
			return 0
		}
		d.Months = int(getInt("months") + 12*getInt("years"))
		d.Days = int(getInt("days") + 7*getInt("weeks"))
		d.Seconds = getInt("seconds") + 60*getInt("minutes") + 3600*getInt("hours")
		return d, nil
	})
	eval.RegisterFunction("year", eval.Args(1), temporalComponent(func(d Date) int64 { return int64(d.Year) }))
	eval.RegisterFunction("month", eval.Args(1), temporalComponent(func(d Date) int64 { return int64(d.Month) }))
	eval.RegisterFunction("day", eval.Args(1), temporalComponent(func(d Date) int64 { return int64(d.Day) }))
	eval.RegisterFunction("durationbetween", eval.Args(2), func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) || value.IsNull(args[1]) {
			return value.Null(), nil
		}
		a, err := asTime(args[0])
		if err != nil {
			return nil, err
		}
		b, err := asTime(args[1])
		if err != nil {
			return nil, err
		}
		return Between(a, b), nil
	})
	eval.RegisterFunction("dateadd", eval.Args(2), func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) || value.IsNull(args[1]) {
			return value.Null(), nil
		}
		d, ok := args[0].(Date)
		if !ok {
			return nil, fmt.Errorf("temporal: dateAdd() expects a date as its first argument")
		}
		dur, ok := args[1].(Duration)
		if !ok {
			return nil, fmt.Errorf("temporal: dateAdd() expects a duration as its second argument")
		}
		return AddToDate(d, dur), nil
	})
}

func temporalComponent(get func(Date) int64) eval.ScalarFunc {
	return func(args []value.Value) (value.Value, error) {
		switch v := args[0].(type) {
		case Date:
			return value.NewInt(get(v)), nil
		case DateTime:
			return value.NewInt(get(v.Date)), nil
		default:
			if value.IsNull(args[0]) {
				return value.Null(), nil
			}
			return nil, fmt.Errorf("temporal: expected a date or datetime, got %s", args[0].Kind())
		}
	}
}

func asTime(v value.Value) (time.Time, error) {
	switch t := v.(type) {
	case Date:
		return t.toTime(), nil
	case DateTime:
		return t.toTime(), nil
	default:
		return time.Time{}, fmt.Errorf("temporal: expected a date or datetime, got %s", v.Kind())
	}
}

func init() { RegisterFunctions() }
