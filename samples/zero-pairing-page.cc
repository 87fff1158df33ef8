{
  "differentials": [
    [
      [
        "x1",
        "x2"
      ]
    ],
    [
      [
        "0"
      ],
      [
        "0"
      ]
    ]
  ],
  "ranks": [
    1,
    2,
    1
  ],
  "ring": {
    "field": {
      "kind": "rationals"
    },
    "laurent": false,
    "order": "grlex",
    "variables": [
      "x1",
      "x2"
    ]
  },
  "type": "free-complex"
}
