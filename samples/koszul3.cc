{
  "differentials": [
    [
      [
        "x",
        "y",
        "z"
      ]
    ],
    [
      [
        "-y",
        "-z",
        "0"
      ],
      [
        "x",
        "0",
        "-z"
      ],
      [
        "0",
        "x",
        "y"
      ]
    ],
    [
      [
        "z"
      ],
      [
        "-y"
      ],
      [
        "x"
      ]
    ]
  ],
  "ranks": [
    1,
    3,
    3,
    1
  ],
  "ring": {
    "field": {
      "kind": "rationals"
    },
    "laurent": false,
    "order": "grlex",
    "variables": [
      "x",
      "y",
      "z"
    ]
  },
  "type": "free-complex"
}
