package store

import (
	"flock/internal/crawler"
	"flock/internal/jsonx"
)

// timelineRow is a row of either timeline file: a Twitter ID and its
// timeline. A Mastodon timeline is stored as a Twitter one, since the
// two types have the same fields and so the same JSON.
//
// These two files hold about three quarters of a dataset's JSON, so
// timelineRow is the one row type with a hand codec (rowCodec):
//
//	{"twitter_id":…,"timeline":{"State":…,"Posts":[{"ID":…,"Time":…,"Text":…,"Source":…,"Domain":…,"Toxicity":…},…]}}
//
// with null for a nil timeline or posts.
type timelineRow struct {
	TwitterID string                   `json:"twitter_id"`
	Timeline  *crawler.TwitterTimeline `json:"timeline"`
}

// The keys of a timeline row, its timeline and a post, in field order.
var (
	rowKeys      = []string{"twitter_id", "timeline"}
	timelineKeys = []string{"State", "Posts"}
	postKeys     = []string{"ID", "Time", "Text", "Source", "Domain", "Toxicity"}
)

// appendJSON cannot write a NaN or infinite toxicity, or a time outside
// the years 0 to 9999; json.Encoder fails on those rows.
func (r *timelineRow) appendJSON(b []byte) ([]byte, bool) {
	b = append(b, `{"twitter_id":`...)
	b = jsonx.AppendString(b, r.TwitterID)
	tl := r.Timeline
	if tl == nil {
		return append(b, ",\"timeline\":null}\n"...), true
	}
	b = append(b, `,"timeline":{"State":`...)
	b = jsonx.AppendString(b, string(tl.State))
	if tl.Posts == nil {
		return append(b, ",\"Posts\":null}}\n"...), true
	}
	b = append(b, `,"Posts":[`...)
	for i := range tl.Posts {
		p := &tl.Posts[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"ID":`...)
		b = jsonx.AppendString(b, p.ID)
		b = append(b, `,"Time":`...)
		var ok bool
		if b, ok = jsonx.AppendTime(b, p.Time); !ok {
			return b, false
		}
		b = append(b, `,"Text":`...)
		b = jsonx.AppendString(b, p.Text)
		b = append(b, `,"Source":`...)
		b = jsonx.AppendString(b, p.Source)
		b = append(b, `,"Domain":`...)
		b = jsonx.AppendString(b, p.Domain)
		b = append(b, `,"Toxicity":`...)
		if b, ok = jsonx.AppendFloat(b, p.Toxicity); !ok {
			return b, false
		}
		b = append(b, '}')
	}
	return append(b, "]}}\n"...), true
}

func (r *timelineRow) decodeJSON(line []byte) bool {
	s := jsonx.NewScanner(line)
	var row timelineRow
	s.Object(rowKeys, func(i int) {
		if i == 0 {
			row.TwitterID = s.String()
			return
		}
		if s.Null() {
			return
		}
		tl := &crawler.TwitterTimeline{}
		row.Timeline = tl
		s.Object(timelineKeys, func(i int) {
			if i == 0 {
				tl.State = crawler.CrawlState(s.String())
				return
			}
			tl.Posts = jsonx.Slice(s, func(p *crawler.Post) {
				s.Object(postKeys, func(i int) {
					switch i {
					case 0:
						p.ID = s.String()
					case 1:
						p.Time = s.Time()
					case 2:
						p.Text = s.String()
					case 3:
						p.Source = s.String()
					case 4:
						p.Domain = s.String()
					case 5:
						p.Toxicity = s.Float()
					}
				})
			})
		})
	})
	if !s.End() {
		return false
	}
	*r = row
	return true
}
